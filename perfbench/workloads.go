package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gillis/internal/batching"
	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/graph"
	"gillis/internal/mesh"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/workload"
)

// A workload is one traffic mix (README.md says why each was chosen). Its
// setup builds a spec; the harness then replays the spec's rounds until
// the run's time is up. Every round is a complete gateway replay on a
// fresh simulated platform (simnet.Env runs once), as gillis-server
// serves each /v1/predict request.
type workloadDef struct {
	name string
	// cycle is the number of distinct rounds. The simulated metrics come
	// from the first cycle, so they are a pure function of the seed;
	// later rounds repeat the cycle and must reproduce it exactly.
	cycle int
	// call is what one wall_ms sample times.
	call  callKind
	setup func(sc *setupCtx) (*spec, error)
}

var workloads = []workloadDef{
	{name: "serve-real", cycle: 24, call: callGatewayRun, setup: setupServeReal},
	{name: "batch-real", cycle: 12, call: callFullBatch, setup: setupBatchReal},
	{name: "replay-burst", cycle: 16, call: callRound, setup: setupReplayBurst},
	{name: "mesh-zipf", cycle: 16, call: callRound, setup: setupMeshZipf},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// slotTrace is one round's generated input: arrival offsets, plus the
// requested model per query (mesh) or the input index per query (Real).
type slotTrace struct {
	at     []time.Duration
	models []string
	inputs []int
	seed   int64
}

// spec is everything one workload's rounds need.
type spec struct {
	platform   platform.Config
	mode       runtime.ExecMode
	models     []mesh.ModelSpec
	meshCfg    *mesh.Config
	deployOpts []runtime.DeployOption
	// gw is the gateway configuration; Input, Model, Router and Traced are
	// filled in per round.
	gw     gateway.Config
	slots  []slotTrace
	inputs []*tensor.Tensor
	// perf is the fitted performance model behind perf.pred_error_pct.
	perf *perf.Model
	// sweepRates are fixed arrival rates, sweep builds the trace (and the
	// gateway configuration, when the autoscaler follows the rate) for
	// one, and sweepTarget is the slo_pct a rate must reach to count
	// towards slo_rate_qps.
	sweepRates  []float64
	sweepTarget float64
	sweep       func(rate float64) (slotTrace, gateway.Config, error)
}

// setupCtx times the setup phases of one setup repetition.
type setupCtx struct {
	seed   int64
	cycle  int
	tr     *tracer
	parent int
	phases map[string]float64
}

// phase runs f as the named setup phase, timing it into sc.phases (and a
// span when tracing).
func (sc *setupCtx) phase(name string, f func() error) error {
	id := sc.tr.begin(name, "setup", sc.parent)
	t := hostNow()
	err := f()
	sc.phases[name] += msSince(t) / 1000
	sc.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// setupPhases lists the setup phases in order; together they make up
// setup_s.
var setupPhases = []string{
	"models.build", "graph.init", "partition.linearize", "perf.build",
	"core.plan", "runtime.deploy", "workload.gen",
}

// buildModel builds and linearizes one zoo model, initializing its
// weights when the workload runs in Real mode.
func buildModel(sc *setupCtx, name string, real bool) ([]*partition.Unit, error) {
	var g *graph.Graph
	if err := sc.phase("models.build", func() (err error) {
		g, err = models.ByName(name)
		return err
	}); err != nil {
		return nil, err
	}
	if real {
		if err := sc.phase("graph.init", func() error { g.Init(systemSeed); return nil }); err != nil {
			return nil, err
		}
	}
	var units []*partition.Unit
	err := sc.phase("partition.linearize", func() (err error) {
		units, err = partition.Linearize(g)
		return err
	})
	return units, err
}

func buildPerf(sc *setupCtx, cfg platform.Config) (*perf.Model, error) {
	var pm *perf.Model
	err := sc.phase("perf.build", func() error {
		var err error
		pm, err = perf.Build(cfg, systemSeed, 2, 300)
		return err
	})
	return pm, err
}

// systemSeed seeds what the serving system is built from: model weights,
// the fitted perf model and the planners' training. It is a constant, so
// every --seed serves the same deployment and --seed drives only what the
// workload sends (arrivals and inputs) and the platform's noise.
const systemSeed = 1

// rngFor derives an independent, seeded stream for one use of the seed.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// platformSeed is round slot's platform seed.
func platformSeed(seed int64, slot int) int64 { return seed*1000 + int64(slot) }

// randomInputs draws n seeded query inputs of the model's input shape.
func randomInputs(seed int64, n int, shape []int) []*tensor.Tensor {
	rng := rngFor(seed, 1)
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = tensor.Rand(rng, 1, shape...)
	}
	return ins
}

// warmServeMs is the client-side latency of warm ShapeOnly serving on a
// fault-free copy of the platform: the slowest of three warm queries. SLOs
// are set relative to it.
func warmServeMs(cfg platform.Config, seed int64, ms mesh.ModelSpec) (float64, error) {
	cfg.Faults = platform.FaultProfile{}
	env := simnet.NewEnv()
	p := platform.New(env, cfg, seed)
	d, err := runtime.Deploy(p, ms.Units, ms.Plan, runtime.ShapeOnly)
	if err != nil {
		return 0, err
	}
	if err := d.Prewarm(); err != nil {
		return 0, err
	}
	var warm float64
	var serveErr error
	env.Go("calibrate", func(proc *simnet.Proc) {
		for i := 0; i < 4; i++ {
			before := proc.Now()
			if _, err := d.Serve(proc, nil); err != nil {
				serveErr = err
				return
			}
			if ms := float64(proc.Now()-before) / 1e6; i > 0 && ms > warm {
				warm = ms
			}
		}
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return warm, serveErr
}

// poissonSlots generates the cycle's Poisson traces.
func poissonSlots(seed int64, cycle int, rate float64, horizon time.Duration) ([]slotTrace, error) {
	slots := make([]slotTrace, cycle)
	for s := range slots {
		at, err := workload.Poisson(rngFor(seed, 100+s), rate, horizon)
		if err != nil {
			return nil, err
		}
		slots[s] = slotTrace{at: at, seed: platformSeed(seed, s)}
	}
	return slots, nil
}

// setupServeReal: resnet50 with seeded weights, latency-optimal plan on the
// Lambda profile, one Real-mode query per round (gillis-server's per
// request path: deploy, prewarm, gateway admission, fork-join Serve).
func setupServeReal(sc *setupCtx) (*spec, error) {
	const nInputs = 4
	units, err := buildModel(sc, "resnet50", true)
	if err != nil {
		return nil, err
	}
	pm, err := buildPerf(sc, platform.AWSLambda())
	if err != nil {
		return nil, err
	}
	var plan *partition.Plan
	if err := sc.phase("core.plan", func() error {
		plan, _, err = core.LatencyOptimal(pm, units, core.Config{})
		return err
	}); err != nil {
		return nil, err
	}
	s := &spec{platform: pm.Platform(), mode: runtime.Real, perf: pm,
		models: []mesh.ModelSpec{{ID: plan.Model, Units: units, Plan: plan}}}
	var warm float64
	if err := sc.phase("runtime.deploy", func() error {
		warm, err = s.deployCheck(systemSeed)
		return err
	}); err != nil {
		return nil, err
	}
	// A single serving slot with a short queue: a query that waits behind
	// one other still attains, a deeper queue does not.
	s.gw = gateway.Config{MaxInFlight: 1, QueueCap: 4, SLOMs: 2 * warm}
	err = sc.phase("workload.gen", func() error {
		s.inputs = randomInputs(sc.seed, nInputs, units[0].InShape)
		for slot := 0; slot < sc.cycle; slot++ {
			s.slots = append(s.slots, slotTrace{at: []time.Duration{0}, inputs: []int{slot % nInputs},
				seed: platformSeed(sc.seed, slot)})
		}
		return nil
	})
	s.sweepRates = []float64{0.5, 1, 2}
	s.sweepTarget = 80
	s.sweep = func(rate float64) (slotTrace, gateway.Config, error) {
		sl, err := poissonSlots(sc.seed+int64(rate*1000), 1, rate, 300*time.Second)
		if err != nil {
			return slotTrace{}, s.gw, err
		}
		return sl[0], s.gw, nil
	}
	return s, err
}

// setupBatchReal: the rnn-tiny4 LSTM with seeded weights, planned for
// batch 8 by the throughput-optimal planner, served in Real mode behind
// gateway batching with one batch in flight under Poisson arrivals.
func setupBatchReal(sc *setupCtx) (*spec, error) {
	const (
		maxBatch = 8
		rate     = 60
		horizon  = time.Second
		nInputs  = 32
	)
	units, err := buildModel(sc, "rnn-tiny4", true)
	if err != nil {
		return nil, err
	}
	pm, err := buildPerf(sc, platform.AWSLambda())
	if err != nil {
		return nil, err
	}
	var plan *partition.Plan
	if err := sc.phase("core.plan", func() error {
		plan, _, err = core.ThroughputOptimal(pm, units, core.Config{Batch: maxBatch})
		return err
	}); err != nil {
		return nil, err
	}
	s := &spec{platform: pm.Platform(), mode: runtime.Real, perf: pm,
		models: []mesh.ModelSpec{{ID: plan.Model, Units: units, Plan: plan}}}
	var warm float64
	if err := sc.phase("runtime.deploy", func() error {
		warm, err = s.deployCheck(systemSeed)
		return err
	}); err != nil {
		return nil, err
	}
	pred, err := pm.PredictPlanBatch(units, plan, maxBatch)
	if err != nil {
		return nil, err
	}
	delay := 100 * time.Millisecond
	s.gw = gateway.Config{
		MaxInFlight: 1,
		QueueCap:    4,
		SLOMs:       warm + float64(delay)/1e6 + 2*pred.LatencyMs,
		Batch:       batching.Config{MaxBatch: maxBatch, MaxDelay: delay, EstServeMs: pred.LatencyMs},
	}
	err = sc.phase("workload.gen", func() error {
		s.inputs = randomInputs(sc.seed, nInputs, units[0].InShape)
		slots, err := poissonSlots(sc.seed, sc.cycle, rate, horizon)
		if err != nil {
			return err
		}
		for si := range slots {
			for q := range slots[si].at {
				slots[si].inputs = append(slots[si].inputs, (si*len(slots[si].at)+q)%nInputs)
			}
		}
		s.slots = slots
		return nil
	})
	s.sweepRates = []float64{50, 100, 200, 400}
	s.sweepTarget = 90
	s.sweep = func(r float64) (slotTrace, gateway.Config, error) {
		sl, err := poissonSlots(sc.seed+int64(r), 1, r, 10*time.Second)
		if err != nil {
			return slotTrace{}, s.gw, err
		}
		return sl[0], s.gw, nil
	}
	return s, err
}

// burstSpec is replay-burst's arrival process at one burst rate: 2 q/s of
// background with four-second bursts every 20 s.
func burstSpec(burstQPS float64) workload.BurstSpec {
	return workload.BurstSpec{BaseRate: 2, BurstRate: burstQPS, Period: 20 * time.Second, BurstLen: 4 * time.Second}
}

// setupReplayBurst: vgg16 planned by the SLO-aware RL planner, deployed
// ShapeOnly with retries, hedging and master fallback on a faulty Lambda
// profile, replayed under bursty open-loop arrivals with the burst-aware
// autoscaler and a bounded queue.
func setupReplayBurst(sc *setupCtx) (*spec, error) {
	const (
		burstQPS = 20
		horizon  = 40 * time.Second
	)
	units, err := buildModel(sc, "vgg16", false)
	if err != nil {
		return nil, err
	}
	pm, err := buildPerf(sc, platform.AWSLambda())
	if err != nil {
		return nil, err
	}
	var plan *partition.Plan
	if err := sc.phase("core.plan", func() error {
		_, lo, err := core.LatencyOptimal(pm, units, core.Config{})
		if err != nil {
			return err
		}
		res, err := core.SLOAware(pm, units, 2*lo.LatencyMs, core.SLOConfig{Seed: systemSeed})
		plan = res.Plan
		return err
	}); err != nil {
		return nil, err
	}
	cfg := pm.Platform()
	cfg.WarmIdleMs = 8000
	cfg.PrewarmMs = cfg.ColdStartMs
	cfg.Faults = platform.FaultProfile{FailureProb: 0.02, StragglerProb: 0.02, StragglerFactor: 4, EvictionProb: 0.01}
	s := &spec{platform: cfg, mode: runtime.ShapeOnly, perf: pm,
		models:     []mesh.ModelSpec{{ID: plan.Model, Units: units, Plan: plan}},
		deployOpts: []runtime.DeployOption{runtime.WithRetries(3, 25), runtime.WithHedging(95), runtime.WithMasterFallback()},
	}
	var warm float64
	if err := sc.phase("runtime.deploy", func() error {
		warm, err = s.deployCheck(systemSeed)
		return err
	}); err != nil {
		return nil, err
	}
	// Enough slots to absorb the design burst at warm service times; the
	// sweep keeps them and raises only the burst rate.
	inFlight := 2*int(math.Ceil(burstQPS*warm/1000)) + 2
	s.gw = gateway.Config{
		MaxInFlight: inFlight,
		QueueCap:    2 * inFlight,
		SLOMs:       1.5 * warm,
		Policy:      gateway.BurstAware{Spec: burstSpec(burstQPS), EstServeMs: warm, LeadMs: 500},
	}
	err = sc.phase("workload.gen", func() error {
		for slot := 0; slot < sc.cycle; slot++ {
			at, err := workload.Bursty(rngFor(sc.seed, 100+slot), burstSpec(burstQPS), horizon)
			if err != nil {
				return err
			}
			s.slots = append(s.slots, slotTrace{at: at, seed: platformSeed(sc.seed, slot)})
		}
		return nil
	})
	s.sweepRates = []float64{10, 20, 30, 50}
	s.sweepTarget = 85
	s.sweep = func(r float64) (slotTrace, gateway.Config, error) {
		at, err := workload.Bursty(rngFor(sc.seed+int64(r), 99), burstSpec(r), horizon)
		gw := s.gw
		gw.Policy = gateway.BurstAware{Spec: burstSpec(r), EstServeMs: warm, LeadMs: 500}
		return slotTrace{at: at, seed: platformSeed(sc.seed, 999)}, gw, err
	}
	return s, err
}

// meshCatalog lists mesh-zipf's catalog in popularity order (first = most
// popular); resident sizes span about 8 to 30 MB.
var meshCatalog = []string{
	"mobilenet-mini", "rnn-tiny2", "mobilenet-mini-w2",
	"rnn-tiny4", "rnn-tiny6", "mobilenet-mini-w3",
}

// setupMeshZipf: the catalog served ShapeOnly through the mesh as the
// gateway's Router, under a Zipf-skewed Poisson trace, on two 56 MB
// instances that cannot hold the whole catalog. Plans are single-group:
// the perf model has no cost model for DepthwiseConv2D or Concat.
func setupMeshZipf(sc *setupCtx) (*spec, error) {
	const (
		rate    = 10
		zipfS   = 1.1
		horizon = 480 * time.Second
	)
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 300000
	cfg.PrewarmMs = cfg.ColdStartMs
	s := &spec{platform: cfg, mode: runtime.ShapeOnly,
		meshCfg: &mesh.Config{Instances: 2, InstanceMemMB: 56, MaxPerInstance: 4}}
	unitsBy := make([][]*partition.Unit, len(meshCatalog))
	for i, name := range meshCatalog {
		units, err := buildModel(sc, name, false)
		if err != nil {
			return nil, err
		}
		unitsBy[i] = units
	}
	pm, err := buildPerf(sc, cfg)
	if err != nil {
		return nil, err
	}
	s.perf = pm
	if err := sc.phase("core.plan", func() error {
		for i, name := range meshCatalog {
			units := unitsBy[i]
			plan := &partition.Plan{Model: name, Groups: []partition.GroupPlan{{
				First: 0, Last: len(units) - 1,
				Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
				OnMaster: true,
			}}}
			if err := plan.Validate(units); err != nil {
				return err
			}
			s.models = append(s.models, mesh.ModelSpec{ID: name, Units: units, Plan: plan})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var warm float64
	if err := sc.phase("runtime.deploy", func() error {
		for _, ms := range s.models {
			w, err := warmServeMs(cfg, systemSeed, ms)
			if err != nil {
				return err
			}
			warm = math.Max(warm, w)
		}
		// The mesh registers every catalog entry; check that it accepts
		// the pool sizing.
		_, err := mesh.New(platform.New(simnet.NewEnv(), cfg, systemSeed), *s.meshCfg, s.models)
		return err
	}); err != nil {
		return nil, err
	}
	// Two serves in flight on two instances: a placement finds an instance
	// whose residents it can evict, so queries do not fail for lack of
	// capacity (more in flight does), while loads, load-waits and
	// evictions still happen.
	s.gw = gateway.Config{MaxInFlight: 2, QueueCap: 64, SLOMs: warm + 0.5*cfg.ColdStartMs}
	zipfTrace := func(seed int64, r float64) (slotTrace, error) {
		arr, err := workload.MultiModel(rand.New(rand.NewSource(seed)), workload.ZipfSpec{Models: meshCatalog, S: zipfS}, r, horizon)
		if err != nil {
			return slotTrace{}, err
		}
		st := slotTrace{at: workload.Times(arr), seed: seed}
		for _, a := range arr {
			st.models = append(st.models, a.Model)
		}
		return st, nil
	}
	err = sc.phase("workload.gen", func() error {
		for slot := 0; slot < sc.cycle; slot++ {
			st, err := zipfTrace(platformSeed(sc.seed, slot), rate)
			if err != nil {
				return err
			}
			s.slots = append(s.slots, st)
		}
		return nil
	})
	s.sweepRates = []float64{5, 10, 20, 40, 80}
	s.sweepTarget = 90
	s.sweep = func(r float64) (slotTrace, gateway.Config, error) {
		st, err := zipfTrace(platformSeed(sc.seed, 900)+int64(r), r)
		return st, s.gw, err
	}
	return s, err
}

// deployCheck deploys and prewarms the workload's single model on a fresh
// platform (the state the first query finds) and returns its warm
// client-side serving latency.
func (s *spec) deployCheck(seed int64) (float64, error) {
	ms := s.models[0]
	p := platform.New(simnet.NewEnv(), s.platform, seed)
	d, err := runtime.Deploy(p, ms.Units, ms.Plan, s.mode, s.deployOpts...)
	if err != nil {
		return 0, err
	}
	if err := d.Prewarm(); err != nil {
		return 0, err
	}
	return warmServeMs(s.platform, seed, ms)
}

// roundOut is one replayed round.
type roundOut struct {
	rep      *gateway.LoadReport
	outs     []gateway.Outcome
	mesh     *mesh.Report
	runMs    float64 // host time inside gateway.Run
	invokes  int64
	billedMs int64
}

// replay runs one round: a fresh platform, the deployment (or mesh), and
// one gateway replay of the slot's trace under cfg. reg, when set,
// aggregates the platform's metrics across rounds.
func (s *spec) replay(slot slotTrace, cfg gateway.Config, mode runtime.ExecMode, reg *trace.Registry, ct *callTimer, traced bool) (*roundOut, error) {
	p := platform.New(simnet.NewEnv(), s.platform, slot.seed)
	if reg != nil {
		p.UseMetrics(reg)
	}
	cfg.Traced = traced
	round := fmt.Sprintf("r%d", ct.round)
	deploySpan := ct.tr.begin("round.deploy", round, ct.parent)
	var b gateway.Backend
	var m *mesh.Mesh
	if s.meshCfg != nil {
		mc := *s.meshCfg
		mc.Mode = mode
		var err error
		if m, err = mesh.New(p, mc, s.models); err != nil {
			return nil, err
		}
		b = m
		cfg.Model = func(i int) string { return slot.models[i] }
		cfg.Router = timedRouter{m, ct}
	} else {
		ms := s.models[0]
		d, err := runtime.Deploy(p, ms.Units, ms.Plan, mode, s.deployOpts...)
		if err != nil {
			return nil, err
		}
		if err := d.Prewarm(); err != nil {
			return nil, err
		}
		b = timedBackend{d, ct}
	}
	ct.tr.end(deploySpan)
	if mode == runtime.Real {
		cfg.Input = func(i int) *tensor.Tensor { return s.inputs[slot.inputs[i]] }
	}
	// Serve and Acquire spans nest under the gateway.Run span.
	roundParent := ct.parent
	ct.parent = ct.tr.begin("gateway.run", round, roundParent)
	t := hostNow()
	rep, outs, err := gateway.Run(b, slot.at, cfg)
	runMs := msSince(t)
	ct.tr.end(ct.parent)
	ct.parent = roundParent
	if err != nil {
		return nil, err
	}
	out := &roundOut{rep: rep, outs: outs, runMs: runMs, invokes: p.Invocations(), billedMs: p.BilledMsTotal()}
	if m != nil {
		out.mesh = m.Report()
	}
	return out, nil
}
