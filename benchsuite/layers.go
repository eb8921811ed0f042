package main

import (
	"fmt"
	"math"
	"sort"

	"uavres/internal/core"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// layerObs is what a traced rep observes per layer. Kernel call counts
// are modelled from outside the program: each per-tick kernel runs at a
// rate read from the effective sim config, times the vehicle-seconds that
// kernel sees, which the span tree and the results give exactly.
type layerObs struct {
	CompileS     float64 `json:"compile_s"`
	FingerprintS float64 `json:"fingerprint_s"`

	PrefixesBuilt    int64   `json:"prefixes_built"`
	CasesForked      int64   `json:"cases_forked"`
	CasesStraight    int64   `json:"cases_straight"`
	CasesBatched     int64   `json:"cases_batched"`
	Batches          int     `json:"batches"`
	CheckpointStageS float64 `json:"checkpoint_stage_s"`
	RunStageS        float64 `json:"run_stage_s"`
	WorkerIdleS      float64 `json:"worker_idle_s"`
	WriteUsP50       float64 `json:"write_us_p50"`
	WriteUsP90       float64 `json:"write_us_p90"`
	WriteS           float64 `json:"write_s"`

	StoreLookups      int   `json:"store_lookups"`
	StoreHits         int   `json:"store_hits"`
	StorePuts         int   `json:"store_puts"`
	StoreBytesWritten int64 `json:"store_bytes_written"`

	SimulatedS float64 `json:"simulated_s"`
	DeliveredS float64 `json:"delivered_s"`
	// Calls maps a micro name to its modelled call count in this run.
	Calls map[string]float64 `json:"calls"`
	// Self is the per-span-name self time of the trace.
	Self []selfTime `json:"self"`
}

// selfTime aggregates the spans of one name: a span's self time is its
// duration minus the part of it its children cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// nestedKernels run inside another kernel's micro (allocation inside
// control.update; normal deviates inside imu_sample_vote and the physics
// step's wind), so their shares are shown but not summed.
var nestedKernels = map[string]bool{"physics.allocate": true, "mathx.norm_polar": true}

// Normal deviates per sample of each noise source, in the draw order of
// sensors.IMU, physics.Wind, sensors.GPS, sensors.Baro and sensors.Mag.
const (
	imuDeviates  = 6 // accel xyz + gyro xyz, per unit
	windDeviates = 3 // gust xyz, per physics step
	gpsDeviates  = 6 // position xyz + velocity xyz
	baroDeviates = 1
	magDeviates  = 1
)

// volumes are simulated vehicle-seconds split by what the per-tick
// kernels see.
type volumes struct {
	total, quad, hexa, octo float64
	// exact is time on the exact covariance path: faulted flights from
	// launch to the end of the fault window plus the settle margin.
	exact float64
	// sensorFaulted is time with a sensor fault injector attached.
	sensorFaulted float64
	// drawing is time whose environment noise a vehicle draws itself:
	// everything but batched forks, plus each batch's donor.
	drawing float64
}

// add accounts one vehicle flying case c's configuration from sim time
// from to to.
func (v *volumes) add(c core.Case, from, to float64, draws bool, cfg sim.Config) error {
	d := to - from
	if d <= 0 {
		return nil
	}
	layout := physics.QuadX
	if c.Airframe != "" {
		var err error
		if layout, err = physics.ParseAirframe(c.Airframe); err != nil {
			return err
		}
	}
	v.total += d
	switch layout {
	case physics.HexaX:
		v.hexa += d
	case physics.OctoX:
		v.octo += d
	default:
		v.quad += d
	}
	if draws {
		v.drawing += d
	}
	if inj := c.Injection; inj != nil {
		if inj.SensorTarget() {
			v.sensorFaulted += d
		}
		fullUntil := (inj.Start + inj.Duration).Seconds() + cfg.CovSettleSec
		v.exact += math.Max(0, math.Min(to, fullUntil)-from)
	}
	return nil
}

// observeLayers derives the per-layer observations of a finished traced
// rep from its span tree, metrics registry and results.
func observeLayers(c *campaign, results []core.CaseResult, reg *obs.Registry, tr *obs.Tracer, cache *tracedCache) (*layerObs, error) {
	spans := tr.Spans()
	byID := make(map[obs.SpanID]*obs.SpanView, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	resultByCase := make(map[string]core.CaseResult, len(results))
	for _, r := range results {
		resultByCase[r.Case.ID] = r
	}
	obsv := &layerObs{
		PrefixesBuilt:    reg.Counter("campaign_prefixes_built_total").Value(),
		CasesForked:      reg.Counter("campaign_cases_forked_total").Value(),
		CasesStraight:    reg.Counter("campaign_cases_straight_total").Value(),
		CasesBatched:     reg.Counter("campaign_cases_batched_total").Value(),
		CheckpointStageS: reg.Gauge("campaign_checkpoint_stage_seconds").Value(),
		RunStageS:        reg.Gauge("campaign_run_stage_seconds").Value(),
		Self:             selfTimes(spans),
	}
	if cache != nil {
		obsv.StoreLookups, obsv.StoreHits, obsv.StorePuts = cache.lookups, cache.hits, cache.puts
		obsv.StoreBytesWritten = cache.st.Stats().Bytes - cache.bytes0
	}

	cfg := c.runner.Config
	var (
		vol    volumes
		busy   float64
		writes []float64
		forks  int
		// prefixCases and batchTail collect, per prefix and batch span,
		// the cases forked under it and the longest fork tail.
		prefixCases = map[obs.SpanID][]core.Case{}
		prefixMax   = map[obs.SpanID]float64{}
		batchTail   = map[obs.SpanID]float64{}
	)
	for i := range spans {
		sp := &spans[i]
		dur := sp.End - sp.Start
		switch sp.Name {
		case "spec.compile":
			obsv.CompileS += dur
		case "spec.fingerprint":
			obsv.FingerprintS += dur
		case "results.write":
			writes = append(writes, dur)
			busy += dur
		case "batch":
			obsv.Batches++
			forks++ // the batch's donor
			busy += dur
		case "case":
			if attr(sp, "cache_hit") == "true" {
				continue
			}
			id := attr(sp, "id")
			res, ok := resultByCase[id]
			if !ok {
				return nil, fmt.Errorf("trace names case %q the results lack", id)
			}
			flight := res.Result.FlightDurationSec
			parent := byID[sp.Parent]
			switch {
			case parent != nil && parent.Name == "batch":
				start := res.Case.Injection.Start.Seconds()
				batchTail[parent.ID] = math.Max(batchTail[parent.ID], flight-start)
				prefixCases[parent.Parent] = append(prefixCases[parent.Parent], res.Case)
				prefixMax[parent.Parent] = math.Max(prefixMax[parent.Parent], flight)
				forks++
				if err := vol.add(res.Case, start, flight, false, cfg); err != nil {
					return nil, err
				}
			case parent != nil && parent.Name == "prefix" && attr(sp, "fallback") != "true":
				busy += dur
				prefixCases[parent.ID] = append(prefixCases[parent.ID], res.Case)
				prefixMax[parent.ID] = math.Max(prefixMax[parent.ID], flight)
				forks++
				if err := vol.add(res.Case, res.Case.Injection.Start.Seconds(), flight, true, cfg); err != nil {
					return nil, err
				}
			default:
				busy += dur
				if err := vol.add(res.Case, 0, flight, true, cfg); err != nil {
					return nil, err
				}
			}
		}
	}
	// Each prefix is simulated once up to the shared injection start, or
	// until the flight ended, by a vehicle carrying its first case's
	// injection.
	for id, cases := range prefixCases {
		length := math.Min(num(byID[id], "start_sec"), prefixMax[id])
		if err := vol.add(cases[0], 0, length, true, cfg); err != nil {
			return nil, err
		}
	}
	for _, tail := range batchTail {
		vol.drawing += tail
	}
	for _, r := range results {
		obsv.DeliveredS += r.Result.FlightDurationSec
	}
	obsv.SimulatedS = vol.total
	obsv.WorkerIdleS = float64(c.runner.Workers)*obsv.RunStageS - busy
	for _, w := range writes {
		obsv.WriteS += w
	}
	sort.Float64s(writes)
	obsv.WriteUsP50 = quantile(writes, 0.5) * 1e6
	obsv.WriteUsP90 = quantile(writes, 0.9) * 1e6
	obsv.Calls = kernelCalls(vol, cfg, forks, obsv.StoreLookups, obsv.StorePuts)
	return obsv, nil
}

// kernelCalls models each micro's call count over the run.
func kernelCalls(v volumes, cfg sim.Config, forks, lookups, puts int) map[string]float64 {
	imuRate := cfg.IMUSpec.RateHz
	physRate := 1 / cfg.PhysicsDt
	imuTicks := imuRate * v.total
	exact := imuRate * v.exact
	if cfg.EKF.CovarianceDecimation <= 1 {
		exact = imuTicks
	}
	perIMU := func(on bool) float64 {
		if on {
			return imuTicks
		}
		return 0
	}
	deviatesPerSec := float64(cfg.IMUCount*imuDeviates)*imuRate + windDeviates*physRate +
		gpsDeviates*cfg.GPSSpec.RateHz + baroDeviates*cfg.BaroSpec.RateHz + magDeviates*cfg.MagSpec.RateHz
	return map[string]float64{
		"physics.step":             physRate * v.quad,
		"physics.step_hexa":        physRate * v.hexa,
		"physics.step_octo":        physRate * v.octo,
		"physics.allocate":         imuTicks,
		"sensors.imu_sample_vote":  imuTicks,
		"ekf.predict":              imuTicks - exact,
		"ekf.predict_exact":        exact,
		"ekf.fuse_gps":             cfg.GPSSpec.RateHz * v.total,
		"control.update":           imuTicks,
		"bubble.observe":           v.total / cfg.TrackingInterval,
		"faultinject.apply":        imuRate * v.sensorFaulted,
		"mitigation.apply":         perIMU(cfg.Mitigation.Enabled()),
		"mitigation.rotor_observe": perIMU(cfg.Mitigation.RotorFDIEnabled()),
		"mathx.norm_polar":         deviatesPerSec * v.drawing,
		"sim.fork":                 float64(forks),
		"store.lookup":             float64(lookups),
		"store.put":                float64(puts),
	}
}

// selfTimes aggregates span self time by name, in name order.
func selfTimes(spans []obs.SpanView) []selfTime {
	children := map[obs.SpanID][]*obs.SpanView{}
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
	}
	agg := map[string]*selfTime{}
	for i := range spans {
		sp := &spans[i]
		row := agg[sp.Name]
		if row == nil {
			row = &selfTime{Name: sp.Name}
			agg[sp.Name] = row
		}
		row.Count++
		row.TotalS += sp.End - sp.Start
		row.SelfS += sp.End - sp.Start - covered(sp, children[sp.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of sp's interval the union of its children's
// intervals covers.
func covered(sp *obs.SpanView, kids []*obs.SpanView) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(k.Start, sp.Start), math.Min(k.End, sp.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	end = math.Inf(-1)
	for _, x := range ivs {
		if x.a > end {
			total += x.b - x.a
			end = x.b
		} else if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

func attr(sp *obs.SpanView, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func num(sp *obs.SpanView, key string) float64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Num
		}
	}
	return 0
}
