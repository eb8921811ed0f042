package telemetry

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"uavres/internal/bubble"
	"uavres/internal/mathx"
	"uavres/internal/sim"
)

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	f := Frame{Seq: 7, SysID: 3, MsgID: MsgPosition, Payload: []byte{1, 2, 3, 4, 5}}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrameBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.SysID != 3 || got.MsgID != MsgPosition || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	f := Frame{Payload: make([]byte, 300)}
	if _, err := f.Encode(); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	raw := []byte{0x55, 0, 0, 0, 0, 0, 0}
	if _, err := ReadFrameBytes(raw); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameCorruptCRC(t *testing.T) {
	f := Frame{Seq: 1, SysID: 2, MsgID: 3, Payload: []byte{9, 9}}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw[6] ^= 0xFF // flip a payload bit
	if _, err := ReadFrameBytes(raw); !errors.Is(err, ErrBadCRC) {
		t.Errorf("err = %v, want ErrBadCRC", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	f := Frame{MsgID: 1, Payload: []byte{1, 2, 3}}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrameBytes(raw[:len(raw)-3]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("err = %v, want ErrShortFrame", err)
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("crc16 = %#x, want 0x29B1", got)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	pos := Position{TimeSec: 90, X: 1.5, Y: -2.5, Z: -15, VX: 3, VY: -1, VZ: 0.1, AirspeedMS: 3.2, WaypointsReached: 2}
	if got, err := DecodePosition(EncodePosition(2, 4, pos)); err != nil || got != pos {
		t.Errorf("position round trip = %+v, %v", got, err)
	}

	bub := Bubble{TimeSec: 91, DeviationM: 6.2, InnerRadiusM: 5.8, OuterRadiusM: 5.8, InnerViolated: true}
	if got, err := DecodeBubble(EncodeBubble(4, 4, bub)); err != nil || got != bub {
		t.Errorf("bubble round trip = %+v, %v", got, err)
	}
}

func TestDecodeWrongMessageType(t *testing.T) {
	pf := EncodePosition(0, 1, Position{})
	if _, err := DecodeBubble(pf); err == nil {
		t.Error("position decoded as bubble")
	}
	bf := EncodeBubble(0, 1, Bubble{})
	if _, err := DecodePosition(bf); err == nil {
		t.Error("bubble decoded as position")
	}
	// A bubble frame with reserved flag bits set would not re-encode to
	// the same bytes, so it is malformed.
	bf.Payload[len(bf.Payload)-1] = 4
	if _, err := DecodeBubble(bf); err == nil {
		t.Error("bubble flags with reserved bits accepted")
	}
}

// TestEncodeTelemetry: one observation becomes a position frame and a
// bubble frame that carry its estimate and bubble verdict unchanged.
func TestEncodeTelemetry(t *testing.T) {
	tel := sim.Telemetry{
		T: 91, EstPos: mathx.V3(1, 2, -15), EstVel: mathx.V3(3, 0, 0.5), Airspeed: 3.1,
		Bubble: bubble.Sample{Deviation: 7, InnerRadius: 5.5, OuterRadius: 6.5, InnerViolated: true, OuterViolated: true},
	}
	pf, bf := EncodeTelemetry(3, 5, tel)
	if pf.Seq != 3 || pf.SysID != 5 || bf.Seq != 3 || bf.SysID != 5 {
		t.Errorf("headers %+v / %+v", pf, bf)
	}
	want := Position{TimeSec: 91, X: 1, Y: 2, Z: -15, VX: 3, VZ: 0.5, AirspeedMS: 3.1}
	if got, err := DecodePosition(pf); err != nil || got != want {
		t.Errorf("position = %+v, %v; want %+v", got, err, want)
	}
	wantB := Bubble{TimeSec: 91, DeviationM: 7, InnerRadiusM: 5.5, OuterRadiusM: 6.5, InnerViolated: true, OuterViolated: true}
	if got, err := DecodeBubble(bf); err != nil || got != wantB {
		t.Errorf("bubble = %+v, %v; want %+v", got, err, wantB)
	}
}

// Property: any frame content survives an encode/decode round trip.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seq, sys, msg uint8, payload []byte) bool {
		if len(payload) > maxPayloadLen {
			payload = payload[:maxPayloadLen]
		}
		in := Frame{Seq: seq, SysID: sys, MsgID: msg, Payload: payload}
		raw, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := ReadFrameBytes(raw)
		if err != nil {
			return false
		}
		return out.Seq == seq && out.SysID == sys && out.MsgID == msg && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: position payloads round-trip exactly for arbitrary values.
func TestPositionRoundTripProperty(t *testing.T) {
	f := func(x, y, z, vx float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) || math.IsNaN(vx) {
			return true // NaN != NaN; skip
		}
		in := Position{X: x, Y: y, Z: z, VX: vx}
		out, err := DecodePosition(EncodePosition(0, 1, in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
