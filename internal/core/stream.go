package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"uavres/internal/mathx"
)

// ResultsWriter streams campaign results as an incrementally written JSON
// array, element by element, so a campaign can persist each case as it
// finishes instead of accumulating all of them in memory first. It is the
// one results writer; LoadPartialResults is the one reader. Wire Write
// into Runner.OnResult, which emits in case order, so one campaign
// always writes the same bytes and resident memory stays bounded by the
// cases finished out of order (see Runner.OnResult).
//
// Write and Close must be called from one goroutine at a time —
// Runner.OnResult already serializes its calls.
type ResultsWriter struct {
	w      io.Writer
	enc    *json.Encoder
	n      int
	closed bool
}

// NewResultsWriter returns a writer streaming a JSON array to w. Nothing
// is written until the first Write; Close finishes the array (an empty
// campaign yields "[]").
func NewResultsWriter(w io.Writer) *ResultsWriter {
	enc := json.NewEncoder(w)
	enc.SetIndent(" ", " ")
	return &ResultsWriter{w: w, enc: enc}
}

// ResultsHeader is the run-metadata element a campaign can write as the
// array's FIRST entry, wrapped as {"header": {...}} so readers can tell it
// from a case result. It records how the results were produced — the
// execution mode and the RNG policy — so two results files are never
// compared across modes silently. LoadPartialResults returns it apart
// from the case results, so resume works unchanged over headered files.
type ResultsHeader struct {
	// SpecHash identifies the compiled campaign (spec.CampaignSpec.Hash).
	SpecHash string `json:"spec_hash,omitempty"`
	// RNGPolicy is the environment sampler name. A campaign writes
	// "polar", the one sampler; files that name another still load. It
	// stays because the campaign benchmark (benchsuite/) compiles against
	// it.
	RNGPolicy string `json:"rng_policy"`
	// RunnerMode is "batch" (lockstep fork batches), "scalar" (one fork
	// or straight run per case) or "straight" (no checkpoints: every case
	// flies from launch).
	RunnerMode string `json:"runner_mode"`
	// BatchWidth is the lockstep batch cap (0 unless RunnerMode is batch).
	BatchWidth int `json:"batch_width,omitempty"`
	// Workers is the pool size the campaign ran with.
	Workers int `json:"workers,omitempty"`
}

// ResultsHeader describes how r runs a campaign, for the results file
// to lead with: the RNG policy, the runner mode and batch width, and
// the worker pool size. specHash identifies the compiled campaign.
func (r *Runner) ResultsHeader(specHash string) ResultsHeader {
	h := ResultsHeader{
		SpecHash:   specHash,
		RNGPolicy:  mathx.NormPolar.String(),
		RunnerMode: "scalar",
		Workers:    r.poolSize(),
	}
	switch {
	case !r.Checkpoint:
		// Batch requires Checkpoint: without it nothing forks or batches.
		h.RunnerMode = "straight"
	case r.Batch:
		h.RunnerMode = "batch"
		h.BatchWidth = r.width()
	}
	return h
}

// resultsElement is the read-side shape of one array element: either a
// header wrapper or a plain case result.
type resultsElement struct {
	Header *ResultsHeader `json:"header"`
	CaseResult
}

// WriteHeader writes the run-metadata element. It must be called before
// the first Write.
func (rw *ResultsWriter) WriteHeader(h ResultsHeader) error {
	if rw.closed {
		return fmt.Errorf("core: write to closed results writer")
	}
	if rw.n > 0 {
		return fmt.Errorf("core: results header must be the first element (have %d results already)", rw.n)
	}
	if _, err := io.WriteString(rw.w, "[\n "); err != nil {
		return fmt.Errorf("core: streaming header: %w", err)
	}
	if err := rw.enc.Encode(struct {
		Header ResultsHeader `json:"header"`
	}{h}); err != nil {
		return fmt.Errorf("core: encoding header: %w", err)
	}
	rw.n++
	return nil
}

// Write appends one result to the array.
func (rw *ResultsWriter) Write(res CaseResult) error {
	if rw.closed {
		return fmt.Errorf("core: write to closed results writer")
	}
	sep := "[\n "
	if rw.n > 0 {
		sep = ","
	}
	if _, err := io.WriteString(rw.w, sep); err != nil {
		return fmt.Errorf("core: streaming result: %w", err)
	}
	if err := rw.enc.Encode(res); err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	rw.n++
	return nil
}

// Close terminates the JSON array. It does not close the underlying
// writer. Close is idempotent; Write after Close errors.
func (rw *ResultsWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	end := "]\n"
	if rw.n == 0 {
		end = "[]\n"
	}
	if _, err := io.WriteString(rw.w, end); err != nil {
		return fmt.Errorf("core: closing results stream: %w", err)
	}
	return nil
}

// ResultsFileWriter is a ResultsWriter that owns its destination file and
// buffers writes; Close flushes and closes the file.
type ResultsFileWriter struct {
	ResultsWriter
	f  *os.File
	bw *bufio.Writer
}

// NewResultsFileWriter creates path (truncating any existing file) and
// returns a streaming writer over it.
func NewResultsFileWriter(path string) (*ResultsFileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bw := bufio.NewWriter(f)
	w := &ResultsFileWriter{f: f, bw: bw}
	w.ResultsWriter = *NewResultsWriter(bw)
	return w, nil
}

// Close finishes the JSON array, flushes, and closes the file.
func (w *ResultsFileWriter) Close() error {
	err := w.ResultsWriter.Close()
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	if ferr := w.f.Close(); err == nil {
		err = ferr
	}
	return err
}
