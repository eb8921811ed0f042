// Package obs is the observability layer: a metrics registry (counters,
// gauges, fixed-bucket histograms) with allocation-free update paths, a
// span tracer, and the trace-event taxonomy (EventKind, Event) the
// simulator's flight-data recorder fills its fixed-size event ring with.
//
// The package is dependency-free (standard library only, no other
// internal packages) so every layer of the stack — sim, ekf, core and the
// cmd/ entry points — can instrument itself without import cycles.
// The registry has one exposition format, a JSON snapshot document
// (WriteJSON / ValidateSnapshotJSON), which cmd/campaign -metrics-out
// writes at the end of a run.
//
// Time never comes from the host clock here: library code receives a
// Clock value and cmd/ entry points decide whether it is wall time or a
// stopped clock (see the walltime analyzer in internal/lint).
package obs

// Clock supplies "now" in seconds. Library code must take a Clock instead
// of reading the wall clock directly: simulation code passes sim time,
// cmd/ entry points wire wall time (e.g. seconds since process start),
// and tests pass a hand-cranked counter. The zero value of a Clock field
// (nil) should be normalized with Stopped by the consumer.
type Clock func() float64

// Stopped returns a clock frozen at zero: timing instruments record
// zero-duration observations, everything else keeps working. It is the
// default for library code that was not handed a real clock.
func Stopped() Clock { return func() float64 { return 0 } }
