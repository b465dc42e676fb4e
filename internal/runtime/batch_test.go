package runtime

import (
	"math/rand"
	"reflect"
	"testing"

	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// TestServeBatchRealMatchesSequential pins the batched fork-join contract:
// a batch of N through a mixed plan (channel, spatial+master, master-local
// groups) yields exactly the N outputs of sequential Serve calls, and the
// per-batch accounting is sane.
func TestServeBatchRealMatchesSequential(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	rng := rand.New(rand.NewSource(7))
	const batch = 4
	xs := make([]*tensor.Tensor, batch)
	want := make([]*tensor.Tensor, batch)
	for e := range xs {
		xs[e] = tensor.Rand(rng, 1, 3, 24, 24)
		out, err := partition.ForwardChain(units, xs[e])
		if err != nil {
			t.Fatal(err)
		}
		want[e] = out
	}
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, err := d.ServeBatch(proc, xs, batch)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Size != batch || len(res.Outputs) != batch {
			t.Errorf("batch result size %d outputs %d", res.Size, len(res.Outputs))
			return
		}
		for e := range res.Outputs {
			if !tensor.Equal(res.Outputs[e], want[e]) {
				t.Errorf("batched output %d must match monolithic execution bitwise", e)
			}
		}
		if res.LatencyMs <= 0 || res.BilledMs <= 0 {
			t.Errorf("bad accounting: %+v", res)
		}
		if res.ColdStart {
			t.Error("prewarmed master should warm-start")
		}
		if len(res.GroupMs) != len(plan.Groups) {
			t.Errorf("got %d group timings, want %d", len(res.GroupMs), len(plan.Groups))
		}
	})
}

// twinServe is one query's outcome in a serveTwins replay: the Result
// with its output replaced by a digest of its bits, or the error.
type twinServe struct {
	Result
	Digest uint64
	Err    string
}

// serveTwins replays the same query sequence on two platforms built from
// one config and seed: one client serves each query with Serve, the other
// with a size-1 ServeBatch. It returns both outcome sequences, failures
// included, for side-by-side comparison.
func serveTwins(t *testing.T, cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan, mode ExecMode, xs []*tensor.Tensor, n int, opts ...DeployOption) (lone, batched []twinServe) {
	t.Helper()
	run := func(asBatch bool) []twinServe {
		var got []twinServe
		runClient(t, cfg, seed, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, mode, opts...)
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Prewarm(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				var x *tensor.Tensor
				var in []*tensor.Tensor
				if xs != nil {
					x = xs[i%len(xs)]
					in = []*tensor.Tensor{x}
				}
				var o twinServe
				if asBatch {
					br, err := d.ServeBatch(proc, in, 1)
					if err == nil && br.Size != 1 {
						t.Errorf("batch of one reported size %d", br.Size)
					}
					o.Result = Result{LatencyMs: br.LatencyMs, GroupMs: br.GroupMs, BilledMs: br.BilledMs, ColdStart: br.ColdStart, Resilience: br.Resilience}
					if br.Outputs != nil {
						o.Output = br.Outputs[0]
					}
					if err != nil {
						o.Err = err.Error()
					}
				} else {
					o.Result, err = d.Serve(proc, x)
					if err != nil {
						o.Err = err.Error()
					}
				}
				if o.Output != nil {
					o.Digest = tensorDigest(o.Output)
					o.Output = nil
				}
				got = append(got, o)
			}
		})
		return got
	}
	return run(false), run(true)
}

// TestServeIsBatchOfOne pins the single serve path: Serve and a size-1
// ServeBatch on twin platforms agree bit for bit on latency, per-group
// timings, billing, cold starts, resilience telemetry and outputs — in
// Real mode through the mixed plan, and in ShapeOnly mode with retries,
// hedging and the master fallback absorbing injected faults.
func TestServeIsBatchOfOne(t *testing.T) {
	units := tinyCNN(t)
	rng := rand.New(rand.NewSource(5))
	xs := []*tensor.Tensor{tensor.Rand(rng, 1, 3, 24, 24), tensor.Rand(rng, 1, 3, 24, 24)}

	t.Run("real-mixed", func(t *testing.T) {
		lone, batched := serveTwins(t, platform.AWSLambda(), 3, units, mixedPlan(t, units), Real, xs, 4)
		if !reflect.DeepEqual(lone, batched) {
			t.Fatalf("Serve and ServeBatch(1) diverged:\nserve: %+v\nbatch: %+v", lone, batched)
		}
		for i, o := range lone {
			want, err := partition.ForwardChain(units, xs[i%len(xs)])
			if err != nil {
				t.Fatal(err)
			}
			if o.Err != "" || o.Digest != tensorDigest(want) {
				t.Fatalf("query %d: err %q, output digest %016x, want monolithic %016x", i, o.Err, o.Digest, tensorDigest(want))
			}
		}
	})

	t.Run("shape-resilient-faults", func(t *testing.T) {
		cfg := platform.AWSLambda()
		cfg.Faults = platform.FaultProfile{FailureProb: 0.3, StragglerProb: 0.2, StragglerFactor: 10}
		lone, batched := serveTwins(t, cfg, 21, units, resilPlan(t, units), ShapeOnly, nil, 60,
			WithRetries(2, 2), WithHedging(90), WithMasterFallback())
		if !reflect.DeepEqual(lone, batched) {
			t.Fatalf("Serve and ServeBatch(1) diverged under faults:\nserve: %+v\nbatch: %+v", lone, batched)
		}
		// The twins must actually have exercised the resilience paths, or
		// agreement proves nothing about them.
		var agg Resilience
		for _, o := range lone {
			agg.add(o.Resilience)
		}
		if agg.Retries == 0 || agg.Hedges == 0 || agg.Fallbacks == 0 {
			t.Fatalf("fault sweep too mild to exercise the resilience paths: %+v", agg)
		}
	})
}

// TestServeBatchShapeOnlyScalesWithSize pins the modeled-cost side: a
// ShapeOnly batch of 8 must cost more billed time than a single query but
// far less than 8 sequential queries' latency (overheads amortize), and a
// batch reduces per-query latency cost versus sequential serving.
func TestServeBatchShapeOnlyScalesWithSize(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	var single, batched float64
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res1, err := d.ServeBatch(proc, nil, 1)
		if err != nil {
			t.Error(err)
			return
		}
		res8, err := d.ServeBatch(proc, nil, 8)
		if err != nil {
			t.Error(err)
			return
		}
		single, batched = res1.LatencyMs, res8.LatencyMs
	})
	if batched <= single {
		t.Fatalf("batch of 8 latency %.3f should exceed single %.3f", batched, single)
	}
	if batched >= 8*single {
		t.Fatalf("batch of 8 latency %.3f should amortize below 8x single %.3f", batched, single)
	}
}

// TestServeBatchValidation pins the argument contract.
func TestServeBatchValidation(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		dReal, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		dShape, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := dReal.ServeBatch(proc, nil, 2); err == nil {
			t.Error("Real batch without inputs should fail")
		}
		x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 24, 24)
		if _, err := dReal.ServeBatch(proc, []*tensor.Tensor{x}, 2); err == nil {
			t.Error("size/inputs mismatch should fail")
		}
		if _, err := dShape.ServeBatch(proc, nil, 0); err == nil {
			t.Error("non-positive ShapeOnly size should fail")
		}
	})
}

// TestSwitcherServeBatchDelegates pins batched delegation to the active
// deployment.
func TestSwitcherServeBatchDelegates(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	rng := rand.New(rand.NewSource(11))
	xs := []*tensor.Tensor{
		tensor.Rand(rng, 1, 3, 24, 24),
		tensor.Rand(rng, 1, 3, 24, 24),
	}
	want := make([]*tensor.Tensor, len(xs))
	for e, x := range xs {
		out, err := partition.ForwardChain(units, x)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = out
	}
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		dPlan, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		dDef, err := DeployDefault(p, units, Real)
		if err != nil {
			t.Error(err)
			return
		}
		sw, err := NewSwitcher(dPlan, dDef)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sw.Switch(1); err != nil {
			t.Error(err)
			return
		}
		res, tr, err := sw.ServeBatchTraced(proc, xs, len(xs))
		if err != nil {
			t.Error(err)
			return
		}
		for e := range res.Outputs {
			if !tensor.Equal(res.Outputs[e], want[e]) {
				t.Errorf("switched batched output %d diverged", e)
			}
		}
		if tr == nil {
			t.Error("traced batch should return a trace")
		}
	})
}
