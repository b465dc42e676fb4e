// Package runtime is Gillis's serving runtime: it deploys a partitioned
// model onto a (simulated) serverless platform and executes inference
// queries with the fork-join model of §III-B — a master function invokes
// worker functions holding model partitions, computes its own partitions
// when the plan places them there, reassembles partial tensors, and
// produces the final result over multiple fork-join rounds.
//
// Two baselines from §V are provided alongside: Default (whole model in one
// function) falls out of a trivial plan, and Pipeline (a single function
// streaming layer partitions from object storage) is implemented by
// DeployPipeline.
package runtime

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/profile"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// ExecMode selects how workers execute their partitions.
type ExecMode int

// Execution modes.
const (
	// Real performs the actual tensor math; outputs are bit-exact with
	// monolithic execution. Use for correctness at small scale.
	Real ExecMode = iota + 1
	// ShapeOnly skips tensor math (timing still reflects the partition's
	// exact FLOPs and payload bytes). Use for large-model experiments.
	ShapeOnly
)

// groupRuntime precomputes everything a group needs at query time.
type groupRuntime struct {
	gp          partition.GroupPlan
	units       []*partition.Unit
	flops       int64 // monolithic group FLOPs
	opBytes     int64 // monolithic bytes touched
	opCount     int   // number of ops (dispatch overheads)
	spatial     []partition.PartSlice
	channel     []partition.ChannelSlice
	inBytes     int64 // full group input payload
	outBytes    int64 // full group output payload
	outShape    []int
	weightBytes int64   // partition weight bytes (fallback fetch size)
	partFLOPs   []int64 // per partition
	partIn      []int64
	partOut     []int64
}

// Deployment is a model served under a plan on a platform.
type Deployment struct {
	p      *platform.Platform
	units  []*partition.Unit
	mode   ExecMode
	prefix string
	groups []*groupRuntime
	opts   deployOpts
	hist   *latencyHistory // per-group worker latencies (hedging trigger)

	// hedgeOff suppresses hedged backup requests at serve time without
	// redeploying — the gateway's brownout mode sheds hedge cost this way.
	hedgeOff atomic.Bool

	// Master is the entry function name.
	Master string
}

// SetHedging enables or disables hedged backup requests between queries.
// Disabling it overrides WithHedging at serve time (retries and fallback
// stay active); re-enabling restores the configured behaviour. Safe to call
// from a controller process between queries — in-flight hedge races are
// unaffected.
func (d *Deployment) SetHedging(enabled bool) { d.hedgeOff.Store(!enabled) }

// Deploy validates the plan against the platform's memory budget, registers
// the master and worker functions, and returns a ready deployment. It
// returns an error (the deployment-time analogue of the paper's OOM
// failures) if any function's resident set exceeds the weight budget.
func Deploy(p *platform.Platform, units []*partition.Unit, plan *partition.Plan, mode ExecMode, opts ...DeployOption) (*Deployment, error) {
	if err := plan.Validate(units); err != nil {
		return nil, err
	}
	if mode != Real && mode != ShapeOnly {
		return nil, fmt.Errorf("runtime: invalid exec mode %d", mode)
	}
	if mode == Real {
		for _, u := range units {
			if !u.Sub.Initialized() {
				return nil, fmt.Errorf("runtime: Real mode requires initialized weights (unit %d)", u.Index)
			}
		}
	}
	budget := int64(p.Config().WeightBudgetMB) * 1e6

	d := &Deployment{
		p:      p,
		units:  units,
		mode:   mode,
		prefix: fmt.Sprintf("%s-d%d", plan.Model, p.NextDeploySeq()),
		hist:   newLatencyHistory(),
	}
	for _, opt := range opts {
		opt(&d.opts)
	}
	d.Master = d.prefix + "-master"

	var masterBytes int64
	for gi, gp := range plan.Groups {
		gr, err := buildGroupRuntime(units, gp)
		if err != nil {
			return nil, err
		}
		ext, err := partition.GroupExtent(units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return nil, err
		}
		if ext.WeightBytes+ext.ActBytes > budget {
			return nil, fmt.Errorf("runtime: group %d partition needs %d MB, exceeding the %d MB function budget (OOM)",
				gi, (ext.WeightBytes+ext.ActBytes)/1e6, budget/1e6)
		}
		if gp.OnMaster {
			masterBytes += ext.WeightBytes
		}
		gr.weightBytes = ext.WeightBytes
		d.groups = append(d.groups, gr)
	}
	if masterBytes > budget {
		return nil, fmt.Errorf("runtime: master resident weights %d MB exceed the %d MB budget (OOM)",
			masterBytes/1e6, budget/1e6)
	}

	if err := p.Register(d.Master, d.masterHandler); err != nil {
		return nil, err
	}
	if d.opts.fallback {
		// Keep a storage copy of every remote DimNone group's weights so
		// the master can degrade gracefully when that worker is down.
		for gi, gr := range d.groups {
			if gr.gp.Option.Dim == partition.DimNone && !gr.gp.OnMaster {
				p.Seed(d.fallbackKey(gi), platform.Object{Bytes: gr.weightBytes})
			}
		}
	}
	for gi, gr := range d.groups {
		parts := gr.gp.Option.Parts
		for part := 0; part < parts; part++ {
			if gr.gp.OnMaster && part == 0 {
				continue // the master computes partition 0 itself
			}
			if gr.gp.Option.Dim == partition.DimNone && gr.gp.OnMaster {
				continue
			}
			name := d.workerName(gi, part)
			gi, part := gi, part
			err := p.Register(name, func(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
				return d.workerHandler(ctx, gi, part, payload)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func (d *Deployment) workerName(group, part int) string {
	return fmt.Sprintf("%s-g%d-p%d", d.prefix, group, part)
}

// Prefix returns the deployment's unique function-name prefix. It is
// process-order dependent (a global deployment counter); golden-trace tests
// strip it from serialized traces to stay stable across test orderings.
func (d *Deployment) Prefix() string { return d.prefix }

// Platform returns the platform the deployment serves on. Gateways and
// autoscalers use it to observe warm pools and billed totals.
func (d *Deployment) Platform() *platform.Platform { return d.p }

// WarmSets reports how many warm instance sets the deployment has standing
// by, counted as the master function's idle warm instances (Prewarm warms
// exactly one master per set).
func (d *Deployment) WarmSets() int { return d.p.WarmCount(d.Master) }

// Prewarm warms the master and one instance of every worker function,
// modeling Gillis's periodic warm-up pings (§III-A).
func (d *Deployment) Prewarm() error {
	if err := d.p.Prewarm(d.Master, 1); err != nil {
		return err
	}
	for gi, gr := range d.groups {
		for part := 0; part < gr.gp.Option.Parts; part++ {
			if gr.gp.OnMaster && part == 0 {
				continue
			}
			if gr.gp.Option.Dim == partition.DimNone && gr.gp.OnMaster {
				continue
			}
			if err := d.p.Prewarm(d.workerName(gi, part), 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result reports one served query.
type Result struct {
	// Output is the inference result (nil in ShapeOnly mode).
	Output *tensor.Tensor
	// LatencyMs is the inference latency: the master function's duration.
	LatencyMs float64
	// GroupMs traces the master-observed duration of each fork-join round,
	// in plan order (they sum to roughly LatencyMs).
	GroupMs []float64
	// BilledMs is the total billed function duration (master + workers),
	// C^S(G) of Eq. (2).
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Resilience reports the query's resilience telemetry (all zero for a
	// naive deployment on a fault-free platform).
	Resilience Resilience
}

// BatchResult reports one served batch.
type BatchResult struct {
	// Outputs holds one inference result per query, in input order (nil in
	// ShapeOnly mode).
	Outputs []*tensor.Tensor
	// Size is the number of queries in the batch.
	Size int
	// LatencyMs is the batch latency: the master function's duration. Every
	// query in the batch observes it.
	LatencyMs float64
	// GroupMs traces each fork-join round's master-observed duration.
	GroupMs []float64
	// BilledMs is the total billed duration (master + workers) for the
	// whole batch; callers apportion it across queries.
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Resilience aggregates the batch's resilience telemetry.
	Resilience Resilience
}

// batchReq is the in-process payload body of every master and worker
// invocation: size queries carried through one fork-join pass (size 1 for
// a lone query). inputs is nil in ShapeOnly mode; size is always set so
// handlers scale their modeled compute even without tensors.
type batchReq struct {
	size   int
	inputs []*tensor.Tensor
}

// batchResp is a worker's response body (Real mode): one output per query.
type batchResp struct {
	outs []*tensor.Tensor
}

// batchMasterResp is the master's response body. The client completes it
// with the invocation's latency, billing and cold start, and its own
// retries, and builds the caller's result from it.
type batchMasterResp struct {
	outputs   []*tensor.Tensor
	groupMs   []float64
	resil     Resilience
	latencyMs float64
	billedMs  int64
	coldStart bool
}

// lone is a batch-of-one response as its single query's Result.
func (mr *batchMasterResp) lone() Result {
	out := Result{
		LatencyMs:  mr.latencyMs,
		GroupMs:    mr.groupMs,
		BilledMs:   mr.billedMs,
		ColdStart:  mr.coldStart,
		Resilience: mr.resil,
	}
	if mr.outputs != nil {
		out.Output = mr.outputs[0]
	}
	return out
}

// batch is the response as a BatchResult of size queries.
func (mr *batchMasterResp) batch(size int) BatchResult {
	return BatchResult{
		Outputs:    mr.outputs,
		Size:       size,
		LatencyMs:  mr.latencyMs,
		GroupMs:    mr.groupMs,
		BilledMs:   mr.billedMs,
		ColdStart:  mr.coldStart,
		Resilience: mr.resil,
	}
}

// Serve executes one inference query from a client process: a batch of one
// through the fork-join engine. When the deployment has a retry budget, it
// also covers the master invocation itself — a crashed or evicted master is
// re-invoked with the same input, so Real-mode outputs are unaffected.
func (d *Deployment) Serve(proc *simnet.Proc, input *tensor.Tensor) (Result, error) {
	mr, err := d.serveBatch(proc, d.loneInputs(input), 1, nil)
	if err != nil {
		return Result{}, err
	}
	d.recordMetrics(mr, 1, false)
	return mr.lone(), nil
}

// ServeTraced is Serve with query-level tracing: it records a span tree
// rooted at the query — invocations with their cold-start/transfer/execution
// phases, fork-join rounds, worker calls with retries and hedges, per-span
// billed-ms attribution — against the simulation's virtual clock. The trace
// is complete once the simulation drains (late-settling abandoned work still
// closes its spans after the query returns).
func (d *Deployment) ServeTraced(proc *simnet.Proc, input *tensor.Tensor) (Result, *trace.Trace, error) {
	tr := trace.New("query", d.p.Env().Stamp)
	root := tr.Root()
	mr, err := d.serveBatch(proc, d.loneInputs(input), 1, root)
	var out Result
	if err != nil {
		root.Fail("", err.Error())
	} else {
		d.recordMetrics(mr, 1, false)
		out = mr.lone()
		if out.Output != nil {
			// Pin the Real-mode output in the trace: bitwise-deterministic
			// kernels yield the same digest at any kernel parallelism.
			root.SetAttr("output-digest", fmt.Sprintf("%016x", tensorDigest(out.Output)))
		}
	}
	root.EndSpan()
	return out, tr, err
}

// ServeBatch executes one batch of queries as a single fork-join pass. In
// Real mode inputs carries one tensor per query and size must equal
// len(inputs); in ShapeOnly mode inputs is nil and size alone scales the
// modeled compute and payloads. Real-mode outputs are bitwise identical to
// serving the inputs sequentially.
func (d *Deployment) ServeBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int) (BatchResult, error) {
	mr, err := d.serveBatch(proc, inputs, size, nil)
	if err != nil {
		return BatchResult{}, err
	}
	d.recordMetrics(mr, size, true)
	return mr.batch(size), nil
}

// ServeBatchTraced is ServeBatch with query-level tracing (see ServeTraced).
func (d *Deployment) ServeBatchTraced(proc *simnet.Proc, inputs []*tensor.Tensor, size int) (BatchResult, *trace.Trace, error) {
	tr := trace.New("batch", d.p.Env().Stamp)
	root := tr.Root()
	mr, err := d.serveBatch(proc, inputs, size, root)
	var res BatchResult
	if err != nil {
		root.Fail("", err.Error())
	} else {
		d.recordMetrics(mr, size, true)
		res = mr.batch(size)
		for e, out := range res.Outputs {
			root.SetAttr(fmt.Sprintf("output-digest-%d", e), fmt.Sprintf("%016x", tensorDigest(out)))
		}
	}
	root.EndSpan()
	return res, tr, err
}

// loneInputs is a lone query's input as a batch of one (nil in ShapeOnly
// mode, where queries carry no tensors).
func (d *Deployment) loneInputs(input *tensor.Tensor) []*tensor.Tensor {
	if d.mode != Real {
		return nil
	}
	return []*tensor.Tensor{input}
}

// serveBatch is the client side of the fork-join engine: it invokes the
// master once for size queries (their tensors in inputs, Real mode only),
// re-invoking it within the retry budget when the invocation fails, and
// returns the master's completed response.
func (d *Deployment) serveBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int, root *trace.Span) (*batchMasterResp, error) {
	if size <= 0 {
		return nil, fmt.Errorf("runtime: batch size %d", size)
	}
	payload := platform.Payload{Bytes: tensor.SizeBytes(d.units[0].InShape) * int64(size)}
	if d.mode == Real {
		if len(inputs) != size {
			return nil, fmt.Errorf("runtime: batch size %d != %d inputs", size, len(inputs))
		}
		payload.Bytes = 0
		for _, in := range inputs {
			if in == nil {
				return nil, fmt.Errorf("runtime: Real mode requires an input tensor")
			}
			payload.Bytes += in.Bytes()
		}
	} else {
		inputs = nil
	}
	payload.Data = &batchReq{size: size, inputs: inputs}
	var lastErr error
	var extra int64
	clientRetries := 0
	for attempt := 0; attempt <= d.opts.retries; attempt++ {
		if attempt > 0 {
			clientRetries++
			root.Event("client-retry", "attempt", strconv.Itoa(attempt))
			proc.Sleep(msToDur(d.opts.backoff(attempt)))
		}
		res, err := d.p.InvokeFromSpan(proc, d.Master, payload, root)
		if err != nil {
			extra += platform.BilledMsOf(err)
			lastErr = err
			continue
		}
		mr, ok := res.Resp.Data.(*batchMasterResp)
		if !ok {
			return nil, fmt.Errorf("runtime: master returned %T", res.Resp.Data)
		}
		if d.mode == Real && len(mr.outputs) != size {
			return nil, fmt.Errorf("runtime: master returned %d outputs for batch of %d", len(mr.outputs), size)
		}
		mr.latencyMs = res.HandlerMs
		mr.billedMs = res.TotalBilledMs
		mr.coldStart = res.ColdStart
		mr.resil.Retries += clientRetries
		mr.resil.FaultsSurvived += clientRetries
		mr.resil.ExtraBilledMs += extra
		return mr, nil
	}
	return nil, lastErr
}

// recordMetrics aggregates one served pass into the platform's metrics
// registry (shared across queries, and across platforms via UseMetrics). A
// lone query's latency and billing land in the runtime.query_* histograms;
// a batch's land in runtime.batch_*, and it counts one runtime.batches.
func (d *Deployment) recordMetrics(mr *batchMasterResp, size int, batched bool) {
	reg := d.p.Metrics()
	reg.Counter("runtime.queries").Add(int64(size))
	r := mr.resil
	reg.Counter("runtime.retries").Add(int64(r.Retries))
	reg.Counter("runtime.hedges").Add(int64(r.Hedges))
	reg.Counter("runtime.hedge_wins").Add(int64(r.HedgesWon))
	reg.Counter("runtime.fallbacks").Add(int64(r.Fallbacks))
	reg.Counter("runtime.faults_survived").Add(int64(r.FaultsSurvived))
	reg.Counter("runtime.extra_billed_ms").Add(r.ExtraBilledMs)
	if batched {
		reg.Counter("runtime.batches").Inc()
		reg.Histogram("runtime.batch_latency_ms").Observe(mr.latencyMs)
		reg.Histogram("runtime.batch_billed_ms").Observe(float64(mr.billedMs))
		return
	}
	reg.Histogram("runtime.query_latency_ms").Observe(mr.latencyMs)
	reg.Histogram("runtime.query_billed_ms").Observe(float64(mr.billedMs))
}

// tensorDigest is a deterministic FNV-1a over the tensor's float bits.
func tensorDigest(t *tensor.Tensor) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range t.Data() {
		b := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(b >> s))
			h *= prime
		}
	}
	return h
}

// observeOps reports a per-operator kernel event into sp for every operator
// forward executed while it is installed. It returns the restore function.
// Install it only around pure Go forwards (no virtual-time sleeps), so the
// scoped process-wide hook never spans a scheduling point.
func observeOps(sp *trace.Span) (restore func()) {
	if sp == nil {
		return func() {}
	}
	return nn.SetObserver(func(op nn.Op) { sp.Event("op:" + op.Name()) })
}

// masterHandler orchestrates the fork-join rounds (Fig. 4) for one batch of
// queries. Per-round invocation overheads (request overhead, cold starts,
// per-op dispatch) are paid once per batch, while modeled compute and
// payload bytes scale with its size.
func (d *Deployment) masterHandler(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
	br, ok := payload.Data.(*batchReq)
	if !ok {
		return platform.Payload{}, fmt.Errorf("runtime: master got %T, want batch", payload.Data)
	}
	cur := br.inputs
	qs := &queryStats{}
	groupMs := make([]float64, 0, len(d.groups))
	for gi := range d.groups {
		before := ctx.Proc().Now()
		gsp := ctx.Span().Childf(trace.KindGroup, "group%d", gi)
		if br.size > 1 {
			gsp.SetAttr("batch", strconv.Itoa(br.size))
		}
		next, err := d.runGroup(ctx, gi, cur, br.size, qs, gsp)
		if err != nil {
			gsp.Fail("", err.Error())
			gsp.EndSpan()
			return platform.Payload{}, err
		}
		gsp.EndSpan()
		groupMs = append(groupMs, float64(ctx.Proc().Now()-before)/1e6)
		cur = next
	}
	last := d.groups[len(d.groups)-1]
	return platform.Payload{
		Bytes: last.outBytes * int64(br.size),
		Data:  &batchMasterResp{outputs: cur, groupMs: groupMs, resil: qs.snapshot()},
	}, nil
}

// runGroup executes one layer group for a batch of size queries from the
// master's perspective. Tensor math runs the batch-aware kernels (DimNone
// paths, channel partitions) or loops per query (spatial partitions), both
// bitwise identical to sequential execution, while modeled compute and
// payload bytes scale linearly with the batch size.
func (d *Deployment) runGroup(ctx *platform.Ctx, gi int, ins []*tensor.Tensor, size int, qs *queryStats, gsp *trace.Span) ([]*tensor.Tensor, error) {
	gr := d.groups[gi]
	opt := gr.gp.Option

	// Whole group on the master: local execution.
	if opt.Dim == partition.DimNone && gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-compute")
		d.computeScaled(ctx, gr, 1.0, size)
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			outs, err := partition.ForwardChainBatch(gr.units, ins)
			restoreObs()
			restore()
			csp.EndSpan()
			return outs, err
		}
		csp.EndSpan()
		return nil, nil
	}

	// Whole group on a single worker: remote round (with retries, and a
	// master-local fallback when graceful degradation is enabled).
	if opt.Dim == partition.DimNone {
		req := platform.Payload{Bytes: gr.inBytes * int64(size), Data: &batchReq{size: size, inputs: ins}}
		res, err := d.callWorker(ctx.Proc(), ctx, gi, 0, req, qs, gsp)
		if err != nil {
			if d.opts.fallback {
				return d.fallbackLocal(ctx, gi, gr, ins, size, qs, gsp)
			}
			return nil, err
		}
		return d.tensorsOf(res.Resp, size)
	}

	// Parallel round: fork workers, optionally compute partition 0 locally,
	// join and reassemble.
	firstWorker := 0
	if gr.gp.OnMaster {
		firstWorker = 1
	}
	promises := make([]*simnet.Promise[platform.InvokeResult], 0, opt.Parts-firstWorker)
	callSpans := make([]*trace.Span, 0, opt.Parts-firstWorker)
	for part := firstWorker; part < opt.Parts; part++ {
		slabs, err := partInputs(gr, part, ins)
		if err != nil {
			abandonUnsettled(promises, callSpans)
			return nil, err
		}
		req := platform.Payload{Bytes: gr.partIn[part] * int64(size), Data: &batchReq{size: size, inputs: slabs}}
		pr, csp := d.launchWorker(ctx, gi, part, req, qs, gsp)
		promises = append(promises, pr)
		callSpans = append(callSpans, csp)
	}
	// outs[part][e] is partition part's output for query e.
	outs := make([][]*tensor.Tensor, opt.Parts)
	var err error
	if gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-part0")
		d.computeScaled(ctx, gr, flopFrac(gr, 0), size)
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			outs[0], err = d.execPart(gr, 0, ins)
			restoreObs()
			restore()
		}
		csp.EndSpan()
	}
	for i := 0; i < len(promises) && err == nil; i++ {
		var res platform.InvokeResult
		if res, err = promises[i].Wait(ctx.Proc()); err == nil {
			outs[firstWorker+i], err = d.tensorsOf(res.Resp, size)
		}
	}
	if err != nil {
		// The round failed and the master stops waiting: sibling calls still
		// in flight settle after the group span ends, which trace invariants
		// only accept once marked abandoned.
		abandonUnsettled(promises, callSpans)
		return nil, err
	}
	// Reassembly is memory-bandwidth work on the master, once per query.
	rsp := gsp.Child(trace.KindCompute, "reassemble")
	ctx.ComputeOp(0, gr.outBytes*int64(size))
	if d.mode != Real {
		rsp.EndSpan()
		return nil, nil
	}
	joined, err := joinParts(opt.Dim, outs, size)
	rsp.EndSpan()
	return joined, err
}

// workerHandler computes one partition of one group for a batch of queries.
func (d *Deployment) workerHandler(ctx *platform.Ctx, gi, part int, payload platform.Payload) (platform.Payload, error) {
	br, ok := payload.Data.(*batchReq)
	if !ok {
		return platform.Payload{}, fmt.Errorf("runtime: worker got %T, want batch", payload.Data)
	}
	gr := d.groups[gi]
	whole := gr.gp.Option.Dim == partition.DimNone
	frac := 1.0
	if !whole {
		frac = flopFrac(gr, part)
	}
	d.computeScaled(ctx, gr, frac, br.size)
	resp := platform.Payload{Bytes: gr.partOut[part] * int64(br.size)}
	if d.mode == Real {
		restore := d.opts.kernelScope()
		restoreObs := observeOps(ctx.Span())
		var outs []*tensor.Tensor
		var err error
		if whole {
			outs, err = partition.ForwardChainBatch(gr.units, br.inputs)
		} else {
			outs, err = d.execPartFromSlab(gr, part, br.inputs)
		}
		restoreObs()
		restore()
		if err != nil {
			return platform.Payload{}, err
		}
		resp.Data = &batchResp{outs: outs}
	}
	return resp, nil
}

// computeScaled advances the worker's clock by the group's ops scaled to
// the partition's share of the work (exact FLOPs incl. halo redundancy)
// and linearly by the batch size; per-op dispatch overheads are charged
// once per batch, which is the batching win the perf model predicts. The
// modeled per-instance vCPU count divides FLOP time by its Amdahl speedup;
// bytes touched stay unscaled (memory bandwidth is shared across an
// instance's cores).
func (d *Deployment) computeScaled(ctx *platform.Ctx, gr *groupRuntime, frac float64, size int) {
	bf := float64(size)
	ctx.ComputeOp(int64(float64(gr.flops)*frac*bf/d.opts.speedup()), int64(float64(gr.opBytes)*frac*bf))
}

func flopFrac(gr *groupRuntime, part int) float64 {
	if gr.flops == 0 {
		return 0
	}
	return float64(gr.partFLOPs[part]) / float64(gr.flops)
}

// partInputs slices every query's group input for a partition (Real mode;
// nil when ins is, as in ShapeOnly mode). Channel partitions consume the
// full inputs.
func partInputs(gr *groupRuntime, part int, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if ins == nil || gr.gp.Option.Dim == partition.DimChannel {
		return ins, nil
	}
	slabs := make([]*tensor.Tensor, len(ins))
	for e, in := range ins {
		slab, err := partition.InputSlab(in, gr.spatial[part])
		if err != nil {
			return nil, err
		}
		slabs[e] = slab
	}
	return slabs, nil
}

// execPart runs one partition over every query's full group input (master
// side).
func (d *Deployment) execPart(gr *groupRuntime, part int, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	slabs, err := partInputs(gr, part, ins)
	if err != nil {
		return nil, err
	}
	return d.execPartFromSlab(gr, part, slabs)
}

// execPartFromSlab runs one partition over the queries' input slabs
// (worker side). Channel partitions build their subgraph once and run the
// batched graph walk; spatial partitions loop ExecSpatialPart per query
// (identical math either way).
func (d *Deployment) execPartFromSlab(gr *groupRuntime, part int, slabs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if gr.gp.Option.Dim == partition.DimChannel {
		cs := gr.channel[part]
		sub, err := partition.ChannelSubgraph(gr.units[0], cs.Channels.Lo, cs.Channels.Hi)
		if err != nil {
			return nil, err
		}
		return sub.ForwardBatch(slabs)
	}
	outs := make([]*tensor.Tensor, len(slabs))
	for e, slab := range slabs {
		out, err := partition.ExecSpatialPart(gr.units, gr.spatial[part], slab)
		if err != nil {
			return nil, err
		}
		outs[e] = out
	}
	return outs, nil
}

// joinParts reassembles each query's output from its partitions' pieces,
// where outs[part][e] is partition part's output for query e.
func joinParts(dim partition.Dim, outs [][]*tensor.Tensor, size int) ([]*tensor.Tensor, error) {
	axis := 1 // spatial: concatenate rows
	if dim == partition.DimChannel {
		axis = 0
	}
	joined := make([]*tensor.Tensor, size)
	pieces := make([]*tensor.Tensor, len(outs))
	for e := range joined {
		for part := range outs {
			pieces[part] = outs[part][e]
		}
		out, err := tensor.ConcatDim(axis, pieces...)
		if err != nil {
			return nil, err
		}
		joined[e] = out
	}
	return joined, nil
}

// tensorsOf unwraps a worker's response: one output per query in Real
// mode, nil in ShapeOnly mode.
func (d *Deployment) tensorsOf(p platform.Payload, size int) ([]*tensor.Tensor, error) {
	if d.mode != Real {
		return nil, nil
	}
	br, ok := p.Data.(*batchResp)
	if !ok {
		return nil, fmt.Errorf("runtime: response payload %T, want batch", p.Data)
	}
	if len(br.outs) != size {
		return nil, fmt.Errorf("runtime: worker returned %d outputs for batch of %d", len(br.outs), size)
	}
	return br.outs, nil
}

// buildGroupRuntime precomputes a group's slices, FLOPs and payload sizes.
func buildGroupRuntime(units []*partition.Unit, gp partition.GroupPlan) (*groupRuntime, error) {
	group := units[gp.First : gp.Last+1]
	gr := &groupRuntime{gp: gp, units: group}
	for _, u := range group {
		gr.flops += u.FLOPs
		shapes := u.NodeShapes()
		for _, node := range u.Sub.Nodes() {
			ins := make([][]int, len(node.Inputs))
			for i, in := range node.Inputs {
				if in < 0 {
					ins[i] = u.InShape
				} else {
					ins[i] = shapes[in]
				}
			}
			b, err := profile.OpBytes(node.Op, ins)
			if err != nil {
				return nil, err
			}
			gr.opBytes += b
			gr.opCount++
		}
	}
	gr.inBytes = tensor.SizeBytes(group[0].InShape)
	gr.outBytes = tensor.SizeBytes(group[len(group)-1].OutShape)
	gr.outShape = group[len(group)-1].OutShape

	switch gp.Option.Dim {
	case partition.DimNone:
		gr.partFLOPs = []int64{gr.flops}
		gr.partIn = []int64{gr.inBytes}
		gr.partOut = []int64{gr.outBytes}
	case partition.DimSpatial:
		slices, err := partition.SpatialSlices(group, gp.Option.Parts)
		if err != nil {
			return nil, err
		}
		gr.spatial = slices
		for _, ps := range slices {
			gr.partFLOPs = append(gr.partFLOPs, ps.FLOPs)
			gr.partIn = append(gr.partIn, ps.InBytes)
			gr.partOut = append(gr.partOut, ps.OutBytes)
		}
	case partition.DimChannel:
		slices, err := partition.ChannelSlices(group[0], gp.Option.Parts)
		if err != nil {
			return nil, err
		}
		gr.channel = slices
		for _, cs := range slices {
			gr.partFLOPs = append(gr.partFLOPs, cs.FLOPs)
			gr.partIn = append(gr.partIn, cs.InBytes)
			gr.partOut = append(gr.partOut, cs.OutBytes)
		}
	default:
		return nil, fmt.Errorf("runtime: unknown option %v", gp.Option)
	}
	return gr, nil
}

// DeployDefault deploys the Default baseline: the whole model in a single
// function (§V-B baseline 1).
func DeployDefault(p *platform.Platform, units []*partition.Unit, mode ExecMode, opts ...DeployOption) (*Deployment, error) {
	plan := &partition.Plan{
		Model: "default-" + modelNameOf(units),
		Groups: []partition.GroupPlan{{
			First: 0, Last: len(units) - 1,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}},
	}
	return Deploy(p, units, plan, mode, opts...)
}

func modelNameOf(units []*partition.Unit) string {
	name := units[0].Sub.Name
	for i := 0; i < len(name); i++ {
		if name[i] == '[' {
			return name[:i]
		}
	}
	return name
}
