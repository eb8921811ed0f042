package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// LoadPartialResults is the one decoder of campaign results files, the
// JSON arrays ResultsWriter streams. It returns the run-metadata header
// (nil when the file has none; the first one when it has several) and
// the case results in file order, and it tolerates the one corruption
// an interrupted campaign legitimately produces: a truncated tail (the
// process died mid-write, so the closing bracket — and possibly half an
// element — is missing). Whatever decoded cleanly before the truncation
// is returned with truncated=true; the torn element is dropped, so
// resume simply re-runs it. Readers that need a finished campaign go
// through LoadResultsFile, which refuses a truncated file.
//
// Anything else — corruption in the middle of the file, a malformed
// element, an element with no case ID, a document that is not a results
// array — is a real error reported with the 1-based line number where
// decoding failed, never a panic.
func LoadPartialResults(r io.Reader) (hdr *ResultsHeader, results []CaseResult, truncated bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: reading results: %w", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		// An empty file is the zero-progress campaign.
		return nil, nil, true, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return nil, nil, false, decodeError(data, dec, err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return nil, nil, false, fmt.Errorf("core: results file is not a JSON array (starts with %v)", tok)
	}
	for dec.More() {
		var el resultsElement
		if err := dec.Decode(&el); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return hdr, results, true, nil
			}
			return nil, nil, false, decodeError(data, dec, err)
		}
		if el.Header != nil {
			// Run-metadata element (see ResultsWriter.WriteHeader), not
			// a case.
			if hdr == nil {
				hdr = el.Header
			}
			continue
		}
		if el.Case.ID == "" {
			return nil, nil, false, fmt.Errorf("core: results element %d has no case ID (line %d)",
				len(results), lineAt(data, dec.InputOffset()))
		}
		results = append(results, el.CaseResult)
	}
	// The closing bracket: absent means the writer never finished.
	if _, err := dec.Token(); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return hdr, results, true, nil
		}
		return nil, nil, false, decodeError(data, dec, err)
	}
	return hdr, results, false, nil
}

// LoadPartialResultsFile is LoadPartialResults over a file path.
func LoadPartialResultsFile(path string) (hdr *ResultsHeader, results []CaseResult, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	hdr, results, truncated, err = LoadPartialResults(f)
	if err != nil {
		return nil, nil, false, fmt.Errorf("%w (in %s)", err, path)
	}
	return hdr, results, truncated, nil
}

// LoadResultsFileWithHeader reads a finished campaign's results file: a
// truncated one, which only -resume can complete, is an error.
func LoadResultsFileWithHeader(path string) (*ResultsHeader, []CaseResult, error) {
	hdr, results, truncated, err := LoadPartialResultsFile(path)
	if err != nil {
		return nil, nil, err
	}
	if truncated {
		return nil, nil, fmt.Errorf("core: results file %s is truncated: the campaign that wrote it did not finish", path)
	}
	return hdr, results, nil
}

// LoadResultsFile is LoadResultsFileWithHeader without the header.
func LoadResultsFile(path string) ([]CaseResult, error) {
	_, results, err := LoadResultsFileWithHeader(path)
	return results, err
}

// decodeError rewrites a JSON decoding failure with the line it
// occurred on.
func decodeError(data []byte, dec *json.Decoder, err error) error {
	offset := dec.InputOffset()
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		offset = syn.Offset
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		offset = typ.Offset
	}
	return fmt.Errorf("core: corrupt results file at line %d: %w", lineAt(data, offset), err)
}

// lineAt converts a byte offset into a 1-based line number.
func lineAt(data []byte, offset int64) int {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	return 1 + bytes.Count(data[:offset], []byte{'\n'})
}
