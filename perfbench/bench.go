package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"gillis/internal/gateway"
	"gillis/internal/mesh"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// setupReps is the least number of times setup runs; setup_s is the
	// median. Cheap setups repeat until setupMinS seconds are spent.
	setupReps int
	setupMinS float64
	// cycle overrides the workload's cycle length (0 keeps it); the smoke
	// test shrinks it.
	cycle int
	// spansPath is where a traced run writes its spans.
	spansPath string
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// result is one run's report.
type result struct {
	context   [][2]string
	metrics   []metric
	attempted int
	failed    int
	failures  []string
	spans     []spanStat
}

func (r *result) add(name string, value float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, note})
}

func (r *result) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// firstCycle accumulates the simulated results of the first cycle of
// rounds: a pure function of the seed.
type firstCycle struct {
	arrivals, served, shed, faulted, wrong, sloOK int
	billedMs                                      int64
	simMs, queueMs, predErrPct                    []float64
	roundTails                                    []float64
	roundTailPct                                  string
	batches, batchMembers                         int
	closedBy                                      map[string]int
	mesh                                          mesh.Report
	loadMsSum                                     float64
	payloadMB, haloPct                            float64
	// handlerMs and dispatchMs are the virtual durations of the handler
	// executions and invocation dispatches in the traced rounds' query
	// traces.
	handlerMs, dispatchMs []float64
	// plans caches the plan-derived figures per model, preds the perf
	// model's prediction per (model, batch size).
	plans map[string][2]float64
	preds map[predKey]float64
}

type predKey struct {
	model string
	batch int
}

// hostRounds accumulates host measurements of the serving phase's
// rounds, split by whether the round was traced. Only the rounds
// themselves are measured, not the benchmark's checks between them.
type hostRounds struct {
	roundMs, callMs, serveMsPerQuery, acquireUs []float64
	runMs                                       []float64
	served                                      int
	allocBytes                                  uint64
	invokes                                     int64
}

func (h *hostRounds) add(ms float64, alloc uint64, served int, out *roundOut, ct *callTimer, call callKind, fullBatch int) {
	h.roundMs = append(h.roundMs, ms)
	h.runMs = append(h.runMs, out.runMs)
	h.served += served
	h.allocBytes += alloc
	h.invokes += out.invokes
	h.acquireUs = append(h.acquireUs, ct.acqUs...)
	for i, v := range ct.serveMs {
		h.serveMsPerQuery = append(h.serveMsPerQuery, v/float64(ct.serveQ[i]))
	}
	switch call {
	case callRound:
		h.callMs = append(h.callMs, ms)
	case callGatewayRun:
		h.callMs = append(h.callMs, out.runMs)
	case callFullBatch:
		for i, v := range ct.serveMs {
			if ct.serveQ[i] == fullBatch {
				h.callMs = append(h.callMs, v)
			}
		}
	}
}

// maxSetupReps caps the setup repetitions of a cheap setup.
const maxSetupReps = 100

// runBench runs one workload: setup (repeated), reference outputs and
// trace checks, the timed serving phase, and the rate sweep.
func runBench(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.cycle > 0 {
		w.cycle = o.cycle
	}
	res := &result{context: runContext(o)}
	var tr *tracer
	if o.traced {
		tr = &tracer{t0: hostNow()}
	}
	su, err := runSetups(w, o, tr)
	if err != nil {
		return nil, err
	}
	s := su.spec
	var refs []*tensor.Tensor
	var nnStats *forwardStats
	if s.mode == runtime.Real {
		if refs, nnStats, err = references(s, tr); err != nil {
			return nil, err
		}
	}
	if err := checkTraces(s, refs, res); err != nil {
		return nil, err
	}
	steal0, total0 := cpuTicks()
	sv, err := serve(w, s, o, refs, tr, res)
	if err != nil {
		return nil, err
	}
	steal1, total1 := cpuTicks()
	res.context = append(res.context, [2]string{"steal_pct",
		fmt.Sprintf("%.2f (serving phase)", pctOf(int(steal1-steal0), int(total1-total0)))})
	sloRate, sloRateN, err := sweep(s)
	if err != nil {
		return nil, err
	}

	if !o.traced {
		fc := sv.fc
		tail, pct := tailOf(sv.plain.callMs)
		simTail, simPct := fc.simTail()
		res.add("setup_s", median(su.seconds), "s", len(su.seconds), "median of setups")
		plain := sv.plain
		busyS := sum(plain.roundMs) / 1000
		res.add("wall_qps", float64(plain.served)/busyS, "q/s", plain.served, fmt.Sprintf("over %.1f s in rounds", busyS))
		res.add("wall_ms_p50", median(sv.plain.callMs), "ms", len(sv.plain.callMs), w.call.String())
		res.add("wall_ms_tail", tail, "ms", len(sv.plain.callMs), pct)
		res.add("alloc_mb_per_query", float64(plain.allocBytes)/1e6/float64(max(plain.served, 1)), "MB", plain.served, "")
		res.add("live_heap_mb", su.liveHeapMB, "MB", 1, "after setup and a GC")
		res.add("sim_ms_p50", median(fc.simMs), "ms", len(fc.simMs), "first cycle")
		res.add("sim_ms_tail", simTail, "ms", len(fc.simMs), simPct)
		res.add("slo_pct", pctOf(fc.sloOK, fc.arrivals), "%", fc.arrivals, fmt.Sprintf("SLO %.1f ms", s.gw.SLOMs))
		res.add("slo_rate_qps", sloRate, "q/s", sloRateN, fmt.Sprintf("slo_pct >= %g", s.sweepTarget))
		res.add("billed_ms_per_query", float64(fc.billedMs)/float64(max(fc.served, 1)), "ms", fc.served, "")
		res.add("served_pct", pctOf(fc.served, fc.arrivals), "%", fc.arrivals,
			fmt.Sprintf("shed %d, faulted %d, wrong %d", fc.shed, fc.faulted, fc.wrong))
		// Generator lateness is zero by construction: every query is
		// timed on the virtual clock from its scheduled arrival.
		return res, nil
	}

	res.spans = tr.rollup()
	if err := tr.write(o.spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	for _, ph := range setupPhases {
		res.add(ph+"_s", median(su.phases[ph]), "s", len(su.phases[ph]), "median of setups")
	}
	res.add("setup.span_coverage_pct", median(su.coverage), "%", len(su.coverage), "setup phases over setup_s")
	traced := sv.traced
	addForwardMetrics(res, nnStats, traced.serveMsPerQuery)
	sv.fc.addLayerMetrics(res, sv.reg, s)
	acqTail, acqPct := tailOf(traced.acquireUs)
	res.add("mesh.acquire_us", median(traced.acquireUs), "us", len(traced.acquireUs), fmt.Sprintf("median; %s %.1f us", acqPct, acqTail))
	res.add("runtime.serve_ms", median(traced.serveMsPerQuery), "ms", len(traced.serveMsPerQuery), "host ms per query inside Serve/ServeBatch")
	res.add("simnet.run_s", median(traced.runMs)/1000, "s", len(traced.runMs), "host s in gateway.Run per round")
	res.add("simnet.host_us_per_invocation", 1000*sum(traced.runMs)/math.Max(float64(traced.invokes), 1), "us", int(traced.invokes), "")
	res.add("trace.overhead_pct", 100*(median(traced.roundMs)/median(sv.plain.roundMs)-1), "%", len(traced.roundMs)+len(sv.plain.roundMs),
		"median traced round over median untraced round")
	return res, nil
}

// setups is the outcome of the repeated setup.
type setups struct {
	spec       *spec
	seconds    []float64
	phases     map[string][]float64
	coverage   []float64
	liveHeapMB float64
}

// runSetups runs the workload's setup at least o.setupReps times and
// until o.setupMinS seconds are spent; the last repetition's spec is
// served.
func runSetups(w workloadDef, o options, tr *tracer) (*setups, error) {
	su := &setups{phases: map[string][]float64{}}
	var total float64
	for rep := 0; rep < o.setupReps || (total < o.setupMinS && rep < maxSetupReps); rep++ {
		su.spec = nil
		goruntime.GC()
		sc := &setupCtx{seed: o.seed, cycle: w.cycle, tr: tr, phases: map[string]float64{}}
		sc.parent = tr.begin("setup", "setup", -1)
		t := hostNow()
		s, err := w.setup(sc)
		sec := msSince(t) / 1000
		tr.end(sc.parent)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		su.spec = s
		su.seconds = append(su.seconds, sec)
		total += sec
		var sum float64
		for _, ph := range setupPhases {
			su.phases[ph] = append(su.phases[ph], sc.phases[ph])
			sum += sc.phases[ph]
		}
		su.coverage = append(su.coverage, 100*sum/sec)
	}
	goruntime.GC()
	var mem goruntime.MemStats
	goruntime.ReadMemStats(&mem)
	su.liveHeapMB = float64(mem.HeapAlloc) / 1e6
	return su, nil
}

// serving is the outcome of the serving phase.
type serving struct {
	fc            *firstCycle
	reg           *trace.Registry
	plain, traced hostRounds
}

// serve runs rounds, repeating the cycle, for o.seconds and at least one
// cycle. In a traced run every second round is traced.
func serve(w workloadDef, s *spec, o options, refs []*tensor.Tensor, tr *tracer, res *result) (*serving, error) {
	fc := &firstCycle{closedBy: map[string]int{}, plans: map[string][2]float64{}, preds: map[predKey]float64{}}
	sv := &serving{fc: fc, reg: trace.NewRegistry()}
	digests := make([]uint64, w.cycle)
	start := hostNow()
	for r := 0; r < w.cycle || msSince(start) < o.seconds*1000; r++ {
		slot := s.slots[r%w.cycle]
		isTraced := o.traced && r%2 == 1
		ct := &callTimer{round: r, parent: -1}
		roundSpan := -1
		if isTraced {
			ct.tr = tr
			roundSpan = tr.begin("round", fmt.Sprintf("r%d", r), -1)
			ct.parent = roundSpan
		}
		// The registry aggregates the first cycle only.
		var reg *trace.Registry
		if r < w.cycle {
			reg = sv.reg
		}
		alloc0 := allocatedBytes()
		t := hostNow()
		out, err := s.replay(slot, s.gw, s.mode, reg, ct, isTraced)
		ms := msSince(t)
		alloc := allocatedBytes() - alloc0
		tr.end(roundSpan)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		ok := checkRound(s, slot, out, refs, res, r)
		served := 0
		for _, good := range ok {
			if good {
				served++
			}
		}
		res.attempted += len(slot.at)
		res.failed += len(slot.at) - served
		d := digest(out)
		if r < w.cycle {
			digests[r] = d
			sv.fc.add(s, slot, out, ok)
		} else if d != digests[r%w.cycle] {
			res.fail("round %d did not reproduce round %d's simulated outcomes", r, r%w.cycle)
		}
		h := &sv.plain
		if isTraced {
			h = &sv.traced
		}
		h.add(ms, alloc, served, out, ct, w.call, s.gw.Batch.MaxBatch)
	}
	return sv, nil
}

// allocatedBytes is the cumulative heap allocation of the process. Unlike
// runtime.ReadMemStats it does not stop the world.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// callKind says what one wall_ms sample times.
type callKind int

const (
	callGatewayRun callKind = iota // one gateway.Run serving one query
	callFullBatch                  // one ServeBatch call of a full batch
	callRound                      // one whole replay round
)

func (c callKind) String() string {
	switch c {
	case callGatewayRun:
		return "per query (gateway.Run)"
	case callFullBatch:
		return "per full batch (ServeBatch)"
	default:
		return "per replay round"
	}
}

// checkRound checks one round's accounting and outputs; ok[i] reports
// that query i was served with a correct output.
func checkRound(s *spec, slot slotTrace, out *roundOut, refs []*tensor.Tensor, res *result, r int) (ok []bool) {
	rep := out.rep
	if len(out.outs) != len(slot.at) || rep.Queries != len(slot.at) ||
		rep.Served+rep.Shed+rep.Faulted != rep.Queries {
		res.fail("round %d: served %d + shed %d + faulted %d != arrivals %d (outcomes %d)",
			r, rep.Served, rep.Shed, rep.Faulted, len(slot.at), len(out.outs))
		return make([]bool, len(slot.at))
	}
	ok = make([]bool, len(out.outs))
	for i, o := range out.outs {
		if o.Shed || o.Err != "" {
			continue
		}
		if s.mode == runtime.Real && !tensor.Equal(o.Output, refs[slot.inputs[i]]) {
			res.fail("round %d query %d: output differs from the monolithic forward", r, i)
			continue
		}
		ok[i] = true
	}
	return ok
}

// add folds one first-cycle round into the simulated totals; ok is the
// round's checkRound verdict.
func (fc *firstCycle) add(s *spec, slot slotTrace, out *roundOut, ok []bool) {
	fc.arrivals += len(slot.at)
	fc.billedMs += out.billedMs
	fc.batches += out.rep.Batches
	fc.batchMembers += int(math.Round(out.rep.MeanBatch * float64(out.rep.Batches)))
	for k, n := range out.rep.BatchClosedBy {
		fc.closedBy[k] += n
	}
	if out.mesh != nil {
		fc.mesh.Queries += out.mesh.Queries
		fc.mesh.Hits += out.mesh.Hits
		fc.mesh.Loads += out.mesh.Loads
		fc.mesh.LoadWaits += out.mesh.LoadWaits
		fc.mesh.Evictions += out.mesh.Evictions
		fc.loadMsSum += out.mesh.MeanLoadMs * float64(out.mesh.Loads)
	}
	fc.addTraces(out.outs)
	var roundSim []float64
	for i, o := range out.outs {
		switch {
		case o.Shed:
			fc.shed++
			continue
		case o.Err != "":
			fc.faulted++
			continue
		case !ok[i]:
			fc.wrong++
			continue
		}
		fc.served++
		if o.SLOOK {
			fc.sloOK++
		}
		fc.simMs = append(fc.simMs, o.TotalMs)
		roundSim = append(roundSim, o.TotalMs)
		fc.queueMs = append(fc.queueMs, o.QueueMs)
		ms := s.modelSpec(o.Model)
		pl, seen := fc.plans[ms.ID]
		if !seen {
			pl = [2]float64{payloadMB(ms), haloPct(ms)}
			fc.plans[ms.ID] = pl
		}
		fc.payloadMB += pl[0]
		fc.haloPct += pl[1]
		if o.ColdStart {
			continue
		}
		key := predKey{ms.ID, o.BatchSize}
		pred, seen := fc.preds[key]
		if !seen {
			pred = s.predictMs(ms, o.BatchSize)
			fc.preds[key] = pred
		}
		if pred > 0 {
			fc.predErrPct = append(fc.predErrPct, 100*(o.LatencyMs-pred)/pred)
		}
	}
	if len(roundSim) > 10 {
		tail, pct := tailOf(roundSim)
		fc.roundTails = append(fc.roundTails, tail)
		fc.roundTailPct = pct
	}
}

// addTraces collects handler and dispatch durations from the round's
// query traces (traced rounds only; batch members share one trace).
func (fc *firstCycle) addTraces(outs []gateway.Outcome) {
	seen := map[*trace.Trace]bool{}
	for _, o := range outs {
		if o.Trace == nil || seen[o.Trace] {
			continue
		}
		seen[o.Trace] = true
		for _, sp := range o.Trace.Spans() {
			ms := float64(sp.End-sp.Start) / 1e6
			switch sp.Kind {
			case trace.KindExec:
				fc.handlerMs = append(fc.handlerMs, ms)
			case trace.KindDispatch:
				fc.dispatchMs = append(fc.dispatchMs, ms)
			}
		}
	}
}

// simTail is the simulated latency tail: the median over the first
// cycle's rounds of each round's tail, so one unusually bad round cannot
// move it; rounds of a single query (serve-real) use the tail over the
// whole cycle.
func (fc *firstCycle) simTail() (float64, string) {
	if len(fc.roundTails) == 0 {
		return tailOf(fc.simMs)
	}
	return median(fc.roundTails), fmt.Sprintf("median over %d rounds of the round's %s", len(fc.roundTails), fc.roundTailPct)
}

// addLayerMetrics reports the per-layer counts and virtual-time figures of
// the first cycle, from the program's metrics registry and the outcomes.
func (fc *firstCycle) addLayerMetrics(res *result, reg *trace.Registry, s *spec) {
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	served := math.Max(float64(fc.served), 1)
	faults := c("platform.faults.failure") + c("platform.faults.timeout") + c("platform.faults.evicted") + c("platform.faults.throttled")
	res.add("partition.halo_flops_pct", fc.haloPct/served, "%", fc.served, "summed part FLOPs over monolithic FLOPs, from the plan")
	res.add("tensor.payload_mb_per_query", fc.payloadMB/served, "MB", fc.served, "computed from the plan, not measured")
	res.add("runtime.invocations_per_query", c("platform.invocations")/served, "count", fc.served, "")
	res.add("runtime.retries", c("runtime.retries"), "count", fc.served, "first cycle")
	res.add("runtime.hedges", c("runtime.hedges"), "count", fc.served, "first cycle")
	res.add("runtime.hedge_win_pct", 100*c("runtime.hedge_wins")/math.Max(c("runtime.hedges"), 1), "%", int(c("runtime.hedges")), "wins over hedges")
	res.add("runtime.fallbacks", c("runtime.fallbacks"), "count", fc.served, "first cycle")
	res.add("runtime.extra_billed_pct", 100*c("runtime.extra_billed_ms")/math.Max(c("platform.billed_ms"), 1), "%", fc.served, "resilience overhead over billed")
	res.add("platform.invocations", c("platform.invocations"), "count", fc.arrivals, "first cycle")
	res.add("platform.cold_starts", c("platform.cold_starts"), "count", fc.arrivals, "first cycle")
	res.add("platform.prewarms", c("platform.prewarms"), "count", fc.arrivals, "first cycle")
	res.add("platform.faults", faults, "count", fc.arrivals, "first cycle")
	res.add("platform.handler_ms_p50", median(fc.handlerMs), "ms", len(fc.handlerMs), "exec spans of the traced rounds")
	res.add("platform.overhead_ms_p50", median(fc.dispatchMs), "ms", len(fc.dispatchMs), "dispatch spans of the traced rounds")
	qTail, qPct := tailOf(fc.queueMs)
	res.add("gateway.queue_wait_ms_p50", median(fc.queueMs), "ms", len(fc.queueMs), "served queries")
	res.add("gateway.queue_wait_ms_tail", qTail, "ms", len(fc.queueMs), qPct)
	res.add("gateway.shed", float64(fc.shed), "count", fc.arrivals, "first cycle")
	meanBatch := float64(fc.batchMembers) / math.Max(float64(fc.batches), 1)
	res.add("batching.mean_batch", meanBatch, "count", fc.batches, "")
	res.add("batching.fill_pct", 100*meanBatch/math.Max(float64(s.gw.Batch.MaxBatch), 1), "%", fc.batches, "mean batch over MaxBatch")
	for _, k := range []string{"size", "delay", "slo", "drain"} {
		res.add("batching.closed_by."+k, float64(fc.closedBy[k]), "count", fc.batches, "first cycle")
	}
	res.add("mesh.hit_pct", 100*float64(fc.mesh.Hits)/math.Max(float64(fc.mesh.Queries), 1), "%", fc.mesh.Queries, "")
	res.add("mesh.loads", float64(fc.mesh.Loads), "count", fc.mesh.Queries, "first cycle")
	res.add("mesh.load_waits", float64(fc.mesh.LoadWaits), "count", fc.mesh.Queries, "first cycle")
	res.add("mesh.evictions", float64(fc.mesh.Evictions), "count", fc.mesh.Queries, "first cycle")
	res.add("mesh.load_ms_mean", fc.loadMsSum/math.Max(float64(fc.mesh.Loads), 1), "ms", fc.mesh.Loads, "virtual fetch plus warm-up per load")
	res.add("perf.pred_error_pct", math.Abs(median(fc.predErrPct)), "%", len(fc.predErrPct), "|median warm simulated latency error| over predicted")
}

// modelSpec returns the catalog entry a query requested (the only entry
// for single-model workloads).
func (s *spec) modelSpec(id string) mesh.ModelSpec {
	for _, ms := range s.models {
		if ms.ID == id {
			return ms
		}
	}
	return s.models[0]
}

// predictMs is the perf model's latency for one served round of the
// model at a batch size; 0 when the model has no prediction (the perf
// model has no cost model for some operator kinds).
func (s *spec) predictMs(ms mesh.ModelSpec, batch int) float64 {
	pred, err := s.perf.PredictPlanBatch(ms.Units, ms.Plan, max(batch, 1))
	if err != nil || pred.OOM {
		return 0
	}
	return pred.LatencyMs
}

// haloPct is the plan's summed per-part FLOPs over the monolithic FLOPs.
func haloPct(ms mesh.ModelSpec) float64 {
	var parts, mono int64
	for _, gp := range ms.Plan.Groups {
		ext, err := partition.GroupExtent(ms.Units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return 0
		}
		parts += ext.TotalFLOPs
		for _, u := range ms.Units[gp.First : gp.Last+1] {
			mono += u.FLOPs
		}
	}
	return 100 * float64(parts) / math.Max(float64(mono), 1)
}

// payloadMB is the activation bytes one query moves between functions:
// the client's request and response plus every partition input and output
// that crosses a function boundary. It is computed from the plan.
func payloadMB(ms mesh.ModelSpec) float64 {
	units := ms.Units
	total := tensor.SizeBytes(units[0].InShape) + tensor.SizeBytes(units[len(units)-1].OutShape)
	for _, gp := range ms.Plan.Groups {
		switch gp.Option.Dim {
		case partition.DimNone:
			if !gp.OnMaster {
				total += tensor.SizeBytes(units[gp.First].InShape) + tensor.SizeBytes(units[gp.Last].OutShape)
			}
		case partition.DimSpatial:
			slices, err := partition.SpatialSlices(units[gp.First:gp.Last+1], gp.Option.Parts)
			if err != nil {
				return 0
			}
			for i, ps := range slices {
				if !(gp.OnMaster && i == 0) {
					total += ps.InBytes + ps.OutBytes
				}
			}
		case partition.DimChannel:
			slices, err := partition.ChannelSlices(units[gp.First], gp.Option.Parts)
			if err != nil {
				return 0
			}
			for i, cs := range slices {
				if !(gp.OnMaster && i == 0) {
					total += cs.InBytes + cs.OutBytes
				}
			}
		}
	}
	return float64(total) / 1e6
}

// forwardStats times the benchmark's own monolithic forwards.
type forwardStats struct {
	forwardMs []float64
	kindMs    map[string]float64
	flops     int64
	serialMs  float64
}

// kindGroup maps operator kinds onto the reported per-kind metrics.
func kindGroup(k nn.Kind) string {
	switch k {
	case nn.KindConv, nn.KindDepthwiseConv:
		return "conv"
	case nn.KindBatchNorm:
		return "bn"
	case nn.KindReLU:
		return "relu"
	case nn.KindMaxPool, nn.KindAvgPool, nn.KindGlobalAvgPool:
		return "pool"
	case nn.KindDense:
		return "dense"
	case nn.KindLSTM:
		return "lstm"
	}
	return "other"
}

// forward runs the monolithic reference forward. With st set it also
// times it, per operator kind through the benchmark's own nn observer: the
// time from one operator's start to the next's is charged to the first.
func (st *forwardStats) forward(units []*partition.Unit, in *tensor.Tensor) (*tensor.Tensor, error) {
	if st == nil {
		return partition.ForwardChain(units, in)
	}
	var kind string
	last := hostNow()
	restore := nn.SetObserver(func(op nn.Op) {
		now := hostNow()
		if kind != "" {
			st.kindMs[kind] += float64(now.Sub(last)) / 1e6
		}
		kind, last = kindGroup(op.Kind()), now
	})
	t := hostNow()
	out, err := partition.ForwardChain(units, in)
	restore()
	end := hostNow()
	if kind != "" {
		st.kindMs[kind] += float64(end.Sub(last)) / 1e6
	}
	st.forwardMs = append(st.forwardMs, float64(end.Sub(t))/1e6)
	return out, err
}

// references computes every input's monolithic reference output with
// partition.ForwardChain. A traced run (tr set) also times them, with a
// span each (nil stats otherwise), and times input 0 again at
// parallelism 1.
func references(s *spec, tr *tracer) ([]*tensor.Tensor, *forwardStats, error) {
	units := s.models[0].Units
	var st *forwardStats
	if tr != nil {
		st = &forwardStats{kindMs: map[string]float64{}}
		for _, u := range units {
			st.flops += u.FLOPs
		}
	}
	refs := make([]*tensor.Tensor, len(s.inputs))
	for i, in := range s.inputs {
		id := tr.begin("nn.forward", fmt.Sprintf("ref%d", i), -1)
		out, err := st.forward(units, in)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		refs[i] = out
	}
	if st == nil {
		return refs, nil, nil
	}
	restore := par.SetParallelism(1)
	t := hostNow()
	_, err := partition.ForwardChain(units, s.inputs[0])
	st.serialMs = msSince(t)
	restore()
	return refs, st, err
}

// addForwardMetrics reports the nn and par layers. ShapeOnly workloads run
// no tensor math, so every figure there is 0.
func addForwardMetrics(res *result, st *forwardStats, servedMs []float64) {
	if st == nil {
		st = &forwardStats{kindMs: map[string]float64{}}
	}
	fwd := median(st.forwardMs)
	n := len(st.forwardMs)
	res.add("nn.forward_ms", fwd, "ms", n, "median monolithic ForwardChain")
	gflops := 0.0
	if fwd > 0 {
		gflops = float64(st.flops) / (fwd / 1000) / 1e9
	}
	res.add("nn.gflops", gflops, "GFLOP/s", n, "")
	for _, k := range []string{"conv", "bn", "relu", "pool", "dense", "lstm"} {
		res.add("nn."+k+"_ms", st.kindMs[k]/math.Max(float64(n), 1), "ms", n, "mean per forward")
	}
	speedup := 0.0
	if fwd > 0 {
		speedup = st.serialMs / fwd
	}
	res.add("par.speedup", speedup, "x", n, fmt.Sprintf("parallelism 1 over %d", par.Parallelism()))
	overhead := 0.0
	if fwd > 0 {
		overhead = median(servedMs) - fwd
	}
	res.add("partition.overhead_ms", overhead, "ms", len(servedMs), "served host ms per query minus nn.forward_ms")
}

// checkTB adapts the trace/tracetest checkers, written for tests, to the
// benchmark: a failed check is recorded as a failure of the run.
type checkTB struct {
	testing.TB
	res *result
	ctx string
}

func (c checkTB) Helper()           {}
func (c checkTB) Error(args ...any) { c.res.fail("%s: %s", c.ctx, fmt.Sprint(args...)) }
func (c checkTB) Errorf(format string, a ...any) {
	c.res.fail("%s: %s", c.ctx, fmt.Sprintf(format, a...))
}
func (c checkTB) Fatal(args ...any)              { c.Error(args...) }
func (c checkTB) Fatalf(format string, a ...any) { c.Errorf(format, a...) }

// checkTraces serves a sample of queries (a batch on batched workloads)
// with tracing on, each alone on a fresh platform, and checks each trace
// with tracetest: well-formed, and its per-span billing sums to what the
// platform billed for the query.
func checkTraces(s *spec, refs []*tensor.Tensor, res *result) error {
	const samples = 2
	for j := 0; j < samples; j++ {
		slot := s.slots[j%len(s.slots)]
		p := platform.New(simnet.NewEnv(), s.platform, slot.seed+7777)
		var d *runtime.Deployment
		var m *mesh.Mesh
		var err error
		if s.meshCfg != nil {
			if m, err = mesh.New(p, *s.meshCfg, s.models); err != nil {
				return err
			}
		} else {
			ms := s.models[0]
			if d, err = runtime.Deploy(p, ms.Units, ms.Plan, s.mode, s.deployOpts...); err != nil {
				return err
			}
			if err := d.Prewarm(); err != nil {
				return err
			}
		}
		n := 1
		if s.gw.Batch.MaxBatch >= 2 {
			n = min(s.gw.Batch.MaxBatch, len(slot.at))
		}
		var tr *trace.Trace
		var outs []*tensor.Tensor
		var billed0 int64
		var procErr error
		p.Env().Go("check", func(proc *simnet.Proc) {
			if m != nil {
				b, release, err := m.Acquire(proc, slot.models[0])
				if err != nil {
					procErr = err
					return
				}
				defer release()
				var ok bool
				if d, ok = b.(*runtime.Deployment); !ok {
					procErr = fmt.Errorf("mesh routed to %T, want *runtime.Deployment", b)
					return
				}
			}
			var ins []*tensor.Tensor
			if s.mode == runtime.Real {
				for q := 0; q < n; q++ {
					ins = append(ins, s.inputs[slot.inputs[q]])
				}
			}
			billed0 = p.BilledMsTotal()
			if s.gw.Batch.MaxBatch >= 2 {
				var r runtime.BatchResult
				r, tr, procErr = d.ServeBatchTraced(proc, ins, n)
				outs = r.Outputs
				return
			}
			var in *tensor.Tensor
			if ins != nil {
				in = ins[0]
			}
			var r runtime.Result
			r, tr, procErr = d.ServeTraced(proc, in)
			outs = []*tensor.Tensor{r.Output}
		})
		if err := p.Env().Run(); err != nil {
			return err
		}
		if tr == nil {
			return fmt.Errorf("trace check: %v", procErr)
		}
		tb := checkTB{res: res, ctx: fmt.Sprintf("traced sample %d", j)}
		tracetest.CheckWellFormed(tb, tr)
		tracetest.CheckBilledTotal(tb, tr, p.BilledMsTotal()-billed0)
		if procErr == nil && s.mode == runtime.Real {
			for q, out := range outs {
				if !tensor.Equal(out, refs[slot.inputs[q]]) {
					res.fail("traced sample %d query %d: output differs from the monolithic forward", j, q)
				}
			}
		}
	}
	return nil
}

// sweep replays the workload ShapeOnly at each fixed rate and returns the highest rate whose slo_pct meets the target,
// with the arrivals behind that figure.
func sweep(s *spec) (float64, int, error) {
	best, n := 0.0, 0
	for _, rate := range s.sweepRates {
		st, gw, err := s.sweep(rate)
		if err != nil {
			return 0, 0, err
		}
		out, err := s.replay(st, gw, runtime.ShapeOnly, nil, &callTimer{parent: -1}, false)
		if err != nil {
			return 0, 0, fmt.Errorf("sweep at %g q/s: %w", rate, err)
		}
		if out.rep.SLOPct >= s.sweepTarget {
			best, n = rate, out.rep.Queries
		}
	}
	return best, n, nil
}

// digest hashes a round's simulated outcomes.
func digest(out *roundOut) uint64 {
	h := fnv.New64a()
	var buf []byte
	word := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, o := range out.outs {
		buf = buf[:0]
		word(math.Float64bits(o.TotalMs))
		word(math.Float64bits(o.LatencyMs))
		word(uint64(o.BilledMs))
		word(uint64(o.BatchSize))
		buf = append(buf, o.Model...)
		buf = append(buf, o.Err...)
		h.Write(buf)
	}
	buf = buf[:0]
	word(uint64(out.billedMs))
	word(uint64(out.invokes))
	h.Write(buf)
	return h.Sum64()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle value of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf is the highest percentile with at least ten samples beyond it:
// the (n-10)-th smallest value, reported as percentile 100*(n-10)/n. With
// ten samples or fewer it falls back to the maximum.
func tailOf(xs []float64) (float64, string) {
	n := len(xs)
	if n == 0 {
		return 0, "no samples"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], fmt.Sprintf("max of %d (too few for a tail)", n)
	}
	// Rounded down, so the stated percentile keeps ten samples beyond it.
	return s[n-11], fmt.Sprintf("p%.2f", math.Floor(10000*float64(n-10)/float64(n))/100)
}

func pctOf(a, b int) float64 { return 100 * float64(a) / math.Max(float64(b), 1) }
