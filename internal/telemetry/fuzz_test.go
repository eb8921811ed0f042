package telemetry_test

import (
	"bytes"
	"testing"

	"uavres/internal/telemetry"
	"uavres/internal/uspace"
)

// FuzzReadFrame feeds arbitrary bytes through the frame decoder, the two
// message decoders and the U-space tracker. No input may panic. A frame
// ReadFrameBytes accepts re-encodes to the input's leading bytes, and a
// message a decoder accepts re-encodes to the same payload. Ingest either
// records the frame's drone or returns an error and tracks nothing.
// Inputs the decoder rejects still reach the message decoders and the
// tracker as an unchecked frame (system and message ID from the first two
// bytes, the rest as payload), so the fuzzer need not forge a CRC to
// explore them. Seed corpus: testdata/fuzz/FuzzReadFrame (valid position
// and bubble frames, a bad CRC, a short frame, a length past the end).
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := telemetry.ReadFrameBytes(raw)
		if err == nil {
			enc, err := fr.Encode()
			if err != nil {
				t.Fatalf("accepted frame %+v does not re-encode: %v", fr, err)
			}
			if !bytes.HasPrefix(raw, enc) {
				t.Fatalf("frame re-encodes to %x, input starts %x", enc, raw)
			}
		} else if len(raw) >= 2 {
			fr = telemetry.Frame{SysID: raw[0], MsgID: raw[1], Payload: raw[2:]}
		} else {
			return
		}

		if p, err := telemetry.DecodePosition(fr); err == nil {
			if got := telemetry.EncodePosition(fr.Seq, fr.SysID, p); !bytes.Equal(got.Payload, fr.Payload) {
				t.Fatalf("position %+v re-encodes to %x, want %x", p, got.Payload, fr.Payload)
			}
		}
		if b, err := telemetry.DecodeBubble(fr); err == nil {
			if got := telemetry.EncodeBubble(fr.Seq, fr.SysID, b); !bytes.Equal(got.Payload, fr.Payload) {
				t.Fatalf("bubble %+v re-encodes to %x, want %x", b, got.Payload, fr.Payload)
			}
		}

		tr := uspace.NewTracker()
		if err := tr.Ingest(fr); err != nil {
			if n := len(tr.Drones()); n != 0 {
				t.Fatalf("rejected frame (%v) left %d tracked drones", err, n)
			}
			return
		}
		if _, tracked := tr.Drone(fr.SysID); !tracked {
			t.Fatalf("accepted frame from system %d left it untracked", fr.SysID)
		}
	})
}
