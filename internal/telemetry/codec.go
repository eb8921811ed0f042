// Package telemetry is the wire format of the paper's tracking path
// (Fig. 1): a compact MAVLink-flavoured binary frame codec for the 1 Hz
// position and bubble reports a vehicle sends to the U-space tracker.
// EncodeTelemetry turns one sim.Telemetry observation into those two
// frames; ReadFrameBytes is the one decoder. The paper's edge and core
// brokers only forward frames, so no transport is modelled: the frames go
// straight to uspace.Tracker.Ingest.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"uavres/internal/sim"
)

// Frame layout (little-endian payloads):
//
//	offset 0: magic (0xFD)
//	offset 1: payload length N
//	offset 2: sequence number
//	offset 3: system ID (drone/mission number)
//	offset 4: message ID
//	offset 5: payload (N bytes)
//	offset 5+N: CRC-16/CCITT over bytes [1, 5+N)
const (
	frameMagic    = 0xFD
	headerLen     = 5
	crcLen        = 2
	maxPayloadLen = 255
)

// Message IDs.
const (
	// MsgPosition carries the EKF position/velocity solution.
	MsgPosition uint8 = 33
	// MsgBubble carries the U-space bubble status.
	MsgBubble uint8 = 100
)

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("telemetry: bad frame magic")
	ErrBadCRC     = errors.New("telemetry: CRC mismatch")
	ErrShortFrame = errors.New("telemetry: short frame")
)

// Frame is one wire frame.
type Frame struct {
	Seq     uint8
	SysID   uint8
	MsgID   uint8
	Payload []byte
}

// crc16 computes CRC-16/CCITT-FALSE.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Encode serializes the frame.
func (f Frame) Encode() ([]byte, error) {
	if len(f.Payload) > maxPayloadLen {
		return nil, fmt.Errorf("telemetry: payload %d bytes exceeds %d", len(f.Payload), maxPayloadLen)
	}
	buf := make([]byte, headerLen+len(f.Payload)+crcLen)
	buf[0] = frameMagic
	buf[1] = uint8(len(f.Payload))
	buf[2] = f.Seq
	buf[3] = f.SysID
	buf[4] = f.MsgID
	copy(buf[headerLen:], f.Payload)
	crc := crc16(buf[1 : headerLen+len(f.Payload)])
	binary.LittleEndian.PutUint16(buf[headerLen+len(f.Payload):], crc)
	return buf, nil
}

// Position is the EKF navigation solution in the local NED frame.
type Position struct {
	TimeSec          float64
	X, Y, Z          float64 // m, NED
	VX, VY, VZ       float64 // m/s, NED
	AirspeedMS       float64
	WaypointsReached uint8
}

// Bubble is the U-space bubble status at a tracking instant.
type Bubble struct {
	TimeSec       float64
	DeviationM    float64
	InnerRadiusM  float64
	OuterRadiusM  float64
	InnerViolated bool
	OuterViolated bool
}

func putF64(b []byte, off int, v float64) int {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
	return off + 8
}

func getF64(b []byte, off int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off + 8
}

// EncodePosition builds a position frame.
func EncodePosition(seq, sysID uint8, m Position) Frame {
	p := make([]byte, 8*8+1)
	off := 0
	for _, v := range []float64{m.TimeSec, m.X, m.Y, m.Z, m.VX, m.VY, m.VZ, m.AirspeedMS} {
		off = putF64(p, off, v)
	}
	p[off] = m.WaypointsReached
	return Frame{Seq: seq, SysID: sysID, MsgID: MsgPosition, Payload: p}
}

// DecodePosition parses a position payload.
func DecodePosition(f Frame) (Position, error) {
	if f.MsgID != MsgPosition || len(f.Payload) != 8*8+1 {
		return Position{}, fmt.Errorf("telemetry: not a position frame (msg %d, %d bytes)", f.MsgID, len(f.Payload))
	}
	var m Position
	off := 0
	for _, dst := range []*float64{&m.TimeSec, &m.X, &m.Y, &m.Z, &m.VX, &m.VY, &m.VZ, &m.AirspeedMS} {
		*dst, off = getF64(f.Payload, off)
	}
	m.WaypointsReached = f.Payload[off]
	return m, nil
}

// EncodeBubble builds a bubble-status frame.
func EncodeBubble(seq, sysID uint8, m Bubble) Frame {
	p := make([]byte, 4*8+1)
	off := 0
	for _, v := range []float64{m.TimeSec, m.DeviationM, m.InnerRadiusM, m.OuterRadiusM} {
		off = putF64(p, off, v)
	}
	var flags uint8
	if m.InnerViolated {
		flags |= 1
	}
	if m.OuterViolated {
		flags |= 2
	}
	p[off] = flags
	return Frame{Seq: seq, SysID: sysID, MsgID: MsgBubble, Payload: p}
}

// DecodeBubble parses a bubble-status payload.
func DecodeBubble(f Frame) (Bubble, error) {
	if f.MsgID != MsgBubble || len(f.Payload) != 4*8+1 {
		return Bubble{}, fmt.Errorf("telemetry: not a bubble frame (msg %d, %d bytes)", f.MsgID, len(f.Payload))
	}
	var m Bubble
	off := 0
	for _, dst := range []*float64{&m.TimeSec, &m.DeviationM, &m.InnerRadiusM, &m.OuterRadiusM} {
		*dst, off = getF64(f.Payload, off)
	}
	flags := f.Payload[off]
	if flags&^3 != 0 {
		return Bubble{}, fmt.Errorf("telemetry: bubble flags %#x set reserved bits", flags)
	}
	m.InnerViolated = flags&1 != 0
	m.OuterViolated = flags&2 != 0
	return m, nil
}

// ReadFrameBytes decodes and validates one frame at the start of raw.
// Bytes past the frame are ignored; the payload aliases raw.
func ReadFrameBytes(raw []byte) (Frame, error) {
	if len(raw) < headerLen+crcLen {
		return Frame{}, ErrShortFrame
	}
	if raw[0] != frameMagic {
		return Frame{}, ErrBadMagic
	}
	n := int(raw[1])
	if len(raw) < headerLen+n+crcLen {
		return Frame{}, ErrShortFrame
	}
	want := binary.LittleEndian.Uint16(raw[headerLen+n:])
	if crc16(raw[1:headerLen+n]) != want {
		return Frame{}, ErrBadCRC
	}
	return Frame{Seq: raw[2], SysID: raw[3], MsgID: raw[4], Payload: raw[headerLen : headerLen+n]}, nil
}

// EncodeTelemetry turns one 1 Hz observation into the two frames a
// vehicle reports to U-space: its EKF position and its bubble status.
func EncodeTelemetry(seq, sysID uint8, tel sim.Telemetry) (pos, bub Frame) {
	pos = EncodePosition(seq, sysID, Position{
		TimeSec: tel.T,
		X:       tel.EstPos.X, Y: tel.EstPos.Y, Z: tel.EstPos.Z,
		VX: tel.EstVel.X, VY: tel.EstVel.Y, VZ: tel.EstVel.Z,
		AirspeedMS: tel.Airspeed,
	})
	bub = EncodeBubble(seq, sysID, Bubble{
		TimeSec:       tel.T,
		DeviationM:    tel.Bubble.Deviation,
		InnerRadiusM:  tel.Bubble.InnerRadius,
		OuterRadiusM:  tel.Bubble.OuterRadius,
		InnerViolated: tel.Bubble.InnerViolated,
		OuterViolated: tel.Bubble.OuterViolated,
	})
	return pos, bub
}
