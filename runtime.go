package dfdeques

import (
	"context"
	"fmt"

	"dfdeques/internal/grt"
)

// RuntimeConfig configures the real runtime. The zero value is usable: one
// worker, DFDeques with no memory quota (K = 0 means ∞). Validate reports
// configuration mistakes eagerly; NewRuntime, Run and RunProgram call it
// for you.
type RuntimeConfig struct {
	// Workers is the number of scheduler workers (virtual processors);
	// 0 means 1.
	Workers int
	// Sched selects the scheduling algorithm.
	Sched SchedKind
	// K is the memory threshold in bytes; 0 means no quota (∞). For
	// DFDeques it bounds net allocation per steal; for ADF, per thread
	// dispatch. WS takes no K — it is DFDeques(∞) by definition, so a
	// nonzero K with SchedWS is a configuration error.
	K int64
	// Seed drives steal-victim randomness.
	Seed int64
	// MeasureContention enables the wall-clock contention counters in
	// RunStats (StealWaitNs, SchedLockNs: the hold time of the scheduler
	// lock SchedLockOps counts). Off by default — timing every critical
	// section would distort the benchmarks the counters explain.
	MeasureContention bool
	// Probe receives one event per scheduling action; nil disables
	// recording. Pass a *TraceRecorder (see NewTraceRecorder) to capture
	// the run for ExportTrace, SummarizeTrace, or VerifyTrace — the
	// runtime stamps the recorder's metadata automatically. Building with
	// -tags grtnotrace compiles every hook site out regardless.
	Probe TraceProbe
}

// ConfigError describes an invalid configuration field (a RuntimeConfig
// field, or a memory-budget limit passed to NewMemBudget).
type ConfigError struct {
	Field  string // the configuration field name
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("dfdeques: invalid configuration: %s: %s", e.Field, e.Reason)
}

// Validate reports the first configuration mistake as a *ConfigError, or
// nil if the configuration is usable.
func (c RuntimeConfig) Validate() error {
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must be >= 0 (0 means 1), got %d", c.Workers)}
	}
	if c.K < 0 {
		return &ConfigError{Field: "K", Reason: fmt.Sprintf("must be >= 0 (0 means no quota), got %d", c.K)}
	}
	switch c.Sched {
	case SchedDFDeques, SchedADF, SchedFIFO, SchedWS:
	default:
		return &ConfigError{Field: "Sched", Reason: fmt.Sprintf("unknown scheduler kind %d", c.Sched)}
	}
	if c.Sched == SchedWS && c.K != 0 {
		return &ConfigError{Field: "K", Reason: "SchedWS is DFDeques(∞) and takes no memory threshold; use SchedDFDeques for a finite K"}
	}
	return nil
}

// grtConfig lowers the public configuration to the internal runtime's.
func (c RuntimeConfig) grtConfig() grt.Config {
	return grt.Config{
		Workers: c.Workers, Sched: c.Sched, K: c.K, Seed: c.Seed,
		MeasureContention: c.MeasureContention, Probe: c.Probe,
	}
}

// Runtime is a persistent scheduling service: a warm worker pool that runs
// any number of submitted jobs, concurrently and back-to-back, without
// paying the pool start-up cost per computation. Build one with
// NewRuntime, feed it with Submit, stop it with Shutdown.
type Runtime struct {
	rt *grt.Runtime
}

// Job is one root computation in flight on a Runtime: its own fork-join
// tree with its own statistics, failure state, and cancellation. See
// Runtime.Submit.
type Job struct {
	j *grt.Job
}

// JobStats reports what one job did; scheduler-wide counters (steals, lock
// operations) are in RunStats, shared by all of a Runtime's jobs.
type JobStats = grt.JobStats

// ErrShutdown is returned by Submit after Shutdown has begun, and is the
// error of jobs aborted by a shutdown whose context expired.
var ErrShutdown = grt.ErrShutdown

// ErrBudget is the error of jobs killed because an allocation pushed
// their MemBudget's live heap past its limit (see SubmitIn).
var ErrBudget = grt.ErrBudget

// MemBudget is a shared memory-accounting group: jobs submitted into one
// (SubmitIn) charge their Alloc/Free traffic against the group's live
// balance, and the job whose allocation crosses the group's limit is
// killed with ErrBudget. It is the multi-tenant isolation knob layered
// above the scheduler's K: K bounds each stolen thread's allocation
// burst (the paper's S1 + O(K·p·D) space bound), a MemBudget caps one
// tenant's total concurrently-live heap across all of its jobs.
type MemBudget = grt.Budget

// NewMemBudget returns a budget enforcing limit bytes of live heap
// across its jobs. 0 means no quota (∞) — the same convention as
// RuntimeConfig.K — leaving the group purely accounting. A negative
// limit is a *ConfigError.
func NewMemBudget(limit int64) (*MemBudget, error) {
	if limit < 0 {
		return nil, &ConfigError{Field: "MemBudget", Reason: fmt.Sprintf("must be >= 0 (0 means no quota), got %d", limit)}
	}
	return grt.NewBudget(limit), nil
}

// NewRuntime validates cfg, builds a runtime, and starts its worker pool.
// The workers idle (parked, not spinning) until Submit gives them work.
// Callers must eventually call Shutdown to join them.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt, err := grt.New(cfg.grtConfig())
	if err != nil {
		return nil, err
	}
	return &Runtime{rt: rt}, nil
}

// Submit starts root as the root thread of a new job and returns without
// waiting. The job runs until its tree completes or ctx is canceled;
// cancellation (or a deadline) poisons the job's threads, which die at
// their next scheduling point, and Job.Wait then returns ctx's error. A
// panicking thread body fails only its own job — the workers and other
// jobs are untouched. Submit fails with ErrShutdown once Shutdown has
// begun.
func (r *Runtime) Submit(ctx context.Context, root func(*Thread)) (*Job, error) {
	j, err := r.rt.Submit(ctx, root)
	if err != nil {
		return nil, err
	}
	return &Job{j: j}, nil
}

// SubmitIn submits like Submit, additionally charging the job's heap
// accounting against budget (nil behaves exactly like Submit). If the
// job's allocations push the budget's live heap past its limit, the job
// is canceled and Wait returns ErrBudget; its remaining balance returns
// to the budget when its last thread retires, so one runaway job never
// consumes its tenant's budget forever.
func (r *Runtime) SubmitIn(ctx context.Context, budget *MemBudget, root func(*Thread)) (*Job, error) {
	j, err := r.rt.SubmitWith(ctx, root, grt.SubmitOpts{Budget: budget})
	if err != nil {
		return nil, err
	}
	return &Job{j: j}, nil
}

// Stats merges one job's accounting with the runtime's scheduler-wide
// counters into the flat RunStats report the one-shot Run returns.
func (r *Runtime) Stats(js JobStats) RunStats { return r.rt.Stats(js) }

// Shutdown stops the runtime: it refuses new submissions, waits for
// in-flight jobs to drain, and joins every worker. If ctx is canceled
// first, the remaining jobs are aborted with ErrShutdown and drained, and
// ctx's error is returned; either way no runtime goroutine survives a
// returned Shutdown. Idempotent.
func (r *Runtime) Shutdown(ctx context.Context) error { return r.rt.Shutdown(ctx) }

// Wait blocks until the job completes or its submission context fires,
// returning the job's stats and its first error: nil on success, the
// panic or discipline-violation error on failure, ctx's error on
// cancellation, ErrShutdown on an aborted shutdown.
func (j *Job) Wait() (JobStats, error) { return j.j.Wait() }

// Done returns a channel closed when the job's last thread completes.
func (j *Job) Done() <-chan struct{} { return j.j.Done() }

// Err returns the job's first recorded error (nil while running cleanly).
func (j *Job) Err() error { return j.j.Err() }

// Cancel poisons the job as if its submission context had been canceled:
// its threads die at their next scheduling points and Wait returns
// context.Canceled once the tree drains. Idempotent; reports whether
// this call canceled the job (false if it already finished or was
// already canceled).
func (j *Job) Cancel() bool { return j.j.Cancel() }

// Stats returns the job's accounting: stable after Done, a live snapshot
// before.
func (j *Job) Stats() JobStats { return j.j.Stats() }

// Run executes root as the root thread of a fresh one-job runtime and
// blocks until it completes: NewRuntime + Submit + Wait + Shutdown. For
// running many computations, build one Runtime and Submit to it — the
// warm pool amortizes worker start-up across jobs.
func Run(cfg RuntimeConfig, root func(*Thread)) (RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return RunStats{}, err
	}
	return grt.Run(cfg.grtConfig(), root)
}

// RunProgram interprets a declarative Program on the real runtime: the
// same workload definition a Simulate call measures under the cost model
// executes here as genuine concurrency. workScale sets spin iterations per
// unit action (0 = default).
func RunProgram(cfg RuntimeConfig, p *Program, workScale int) (RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return RunStats{}, err
	}
	return grt.RunSpec(cfg.grtConfig(), p, workScale)
}
