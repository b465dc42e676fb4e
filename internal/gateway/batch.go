package gateway

// Cross-query batching (DESIGN.md §13). When Config.Batch.MaxBatch >= 2 the
// gateway routes every arrival through an admission-side batch former
// instead of the per-query serve path: arrivals accumulate into a forming
// batch that closes when it is full (at admission), or on the control tick
// when the oldest member's delay or SLO budget runs out, or when the
// arrival trace drains. One member — the arrival that filled the batch, or
// the oldest member on a tick close — leads: it acquires a single admission
// slot through the same acquire/release routines a lone query takes,
// serves the whole batch through the backend's ServeBatch, and settles a
// typed per-query Outcome for every member through the same finish routine.

import (
	"fmt"

	"gillis/internal/batching"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// batchAssign is what a waiting batch member learns when its batch closes:
// whether it leads the dispatch, and (for the leader) the membership and
// closing rule.
type batchAssign struct {
	lead   bool
	batch  []batching.Member
	reason batching.CloseReason
}

// setupBatching validates the batch configuration against the backend and
// arms the former. Called from Run after cfg.withDefaults().
func (g *gateway) setupBatching(b Backend, cfg Config) error {
	if cfg.Batch.MaxBatch <= 1 {
		return nil
	}
	bb, ok := b.(BatchBackend)
	if !ok {
		return fmt.Errorf("gateway: batching enabled (MaxBatch %d) but backend %T does not implement BatchBackend", cfg.Batch.MaxBatch, b)
	}
	bcfg := cfg.Batch
	// The former inherits the gateway's control tick and SLO unless the
	// batch config pins its own.
	if bcfg.TickMs == 0 {
		bcfg.TickMs = cfg.TickMs
	}
	if bcfg.SLOMs == 0 {
		bcfg.SLOMs = cfg.SLOMs
	}
	f, err := batching.New(bcfg)
	if err != nil {
		return err
	}
	g.former = f
	g.bb = bb
	g.waiters = make(map[int]*simnet.Promise[batchAssign])
	g.batchClosed = make(map[string]int)
	g.mBatches = g.reg.Counter("gateway.batches")
	g.hBatchSize = g.reg.Histogram("gateway.batch_size")
	return nil
}

// batchedQuery admits one arrival in batched mode: join the forming batch,
// and either lead the dispatch (the arrival that fills the batch) or wait
// for a tick close to assign a role.
func (g *gateway) batchedQuery(proc *simnet.Proc, i int) {
	arrival := proc.Now()
	g.mQueries.Inc()

	g.mu.Lock()
	g.arrived++
	if g.former.Add(i, arrival) {
		// Size rule: the batch is full; this arrival closes and leads it.
		members := g.former.Take()
		g.mu.Unlock()
		g.leadBatch(proc, members, i, batching.ReasonSize)
		return
	}
	pr := simnet.NewPromise[batchAssign](proc.Env())
	g.waiters[i] = pr
	g.mu.Unlock()

	a, err := pr.Wait(proc)
	if err != nil {
		g.settle(i, Outcome{ID: i, ArrivalMs: durMs(arrival), Err: err.Error()})
		return
	}
	if a.lead {
		g.leadBatch(proc, a.batch, i, a.reason)
	}
	// Non-leaders return: the leader settles their outcomes.
}

// batchTick evaluates the tick-driven closing rules; on a close it appoints
// the oldest member leader by resolving its promise. Called from the
// autoscale process each control tick, before the adaptive controller.
func (g *gateway) batchTick(proc *simnet.Proc) {
	if g.former == nil {
		return
	}
	g.mu.Lock()
	reason := g.former.ShouldClose(proc.Now(), g.arrived >= g.total)
	if reason == batching.ReasonNone {
		g.mu.Unlock()
		return
	}
	members := g.former.Take()
	lead := g.waiters[members[0].ID]
	delete(g.waiters, members[0].ID)
	g.mu.Unlock()
	lead.Resolve(batchAssign{lead: true, batch: members, reason: reason})
}

// leadBatch runs one closed batch to completion on the leader's process:
// account the close, acquire a single admission slot (or shed the whole
// batch), serve, settle every member, and release the slot and the
// non-leader members.
func (g *gateway) leadBatch(proc *simnet.Proc, members []batching.Member, leaderID int, reason batching.CloseReason) {
	n := len(members)
	g.mu.Lock()
	g.batches++
	g.batchSizeSum += n
	g.batchClosed[reason.String()]++
	g.mu.Unlock()
	g.mBatches.Inc()
	g.hBatchSize.Observe(float64(n))

	// Admission: one slot for the whole batch, through the same routine a
	// lone query takes.
	if err := g.acquire(proc, n); err != nil {
		for _, m := range members {
			g.refuse(Outcome{ID: m.ID, ArrivalMs: durMs(m.Arrival), BatchSize: n}, err)
		}
		g.releaseWaiters(members, leaderID)
		return
	}
	g.mAdmitted.Add(int64(n))
	outs := g.serveBatch(proc, members)
	g.release()
	for k, m := range members {
		g.settle(m.ID, outs[k])
	}
	g.releaseWaiters(members, leaderID)
}

// releaseWaiters resolves every non-leader member's promise so their
// processes can exit; the leader has no pending promise by construction.
func (g *gateway) releaseWaiters(members []batching.Member, leaderID int) {
	g.mu.Lock()
	var prs []*simnet.Promise[batchAssign]
	for _, m := range members {
		if m.ID == leaderID {
			continue
		}
		if pr, ok := g.waiters[m.ID]; ok {
			prs = append(prs, pr)
			delete(g.waiters, m.ID)
		}
	}
	g.mu.Unlock()
	for _, pr := range prs {
		pr.Resolve(batchAssign{})
	}
}

// serveBatch serves one admitted batch through the backend and builds the
// typed per-member Outcomes: each member keeps its own arrival, queue wait
// (batch forming plus slot wait), and SLO verdict; the serve latency and
// trace are shared; the billed time splits evenly with the remainder going
// to the earliest members so the per-query sum reconciles with the batch;
// a cold start is attributed to the first member only.
func (g *gateway) serveBatch(proc *simnet.Proc, members []batching.Member) []Outcome {
	n := len(members)
	startMs := durMs(proc.Now())
	var inputs []*tensor.Tensor
	if g.cfg.Input != nil {
		inputs = make([]*tensor.Tensor, n)
		for k, m := range members {
			inputs[k] = g.cfg.Input(m.ID)
		}
	}
	var res runtime.BatchResult
	var tr *trace.Trace
	var err error
	if g.cfg.Traced {
		res, tr, err = g.bb.ServeBatchTraced(proc, inputs, n)
	} else {
		res, err = g.bb.ServeBatch(proc, inputs, n)
	}
	endMs := durMs(proc.Now())

	outs := make([]Outcome, n)
	billed := res.BilledMs
	if err != nil {
		billed = platform.BilledMsOf(err)
	}
	base, rem := billed/int64(n), billed%int64(n)
	for k, m := range members {
		o := Outcome{
			ID:        m.ID,
			ArrivalMs: durMs(m.Arrival),
			QueueMs:   startMs - durMs(m.Arrival),
			TotalMs:   endMs - durMs(m.Arrival),
			BilledMs:  base,
			BatchSize: n,
			Trace:     tr,
		}
		if int64(k) < rem {
			o.BilledMs++
		}
		if res.Outputs != nil {
			o.Output = res.Outputs[k]
		}
		g.finish(&o, err, res.LatencyMs, k == 0 && res.ColdStart)
		outs[k] = o
	}
	return outs
}
