package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// calcJobs returns n fast deterministic jobs, T00, T01, …. Each job
// derives its value purely from its ID and seed, and observes one
// counter so Metrics-enabled runs carry metric bytes worth comparing.
func calcJobs(n int) []sweep.Job {
	jobs := make([]sweep.Job, n)
	for i := range jobs {
		id := fmt.Sprintf("T%02d", i)
		jobs[i] = sweep.Job{ID: id, Run: func(ctx context.Context, p sweep.Params) (any, error) {
			sum := p.Seed
			for k := 0; k < 1000; k++ {
				sum = sum*6364136223846793005 + 1442695040888963407
			}
			p.Obs.Counter("test.work").Add(int64(sum % 97))
			return map[string]uint64{"sum": sum}, nil
		}}
	}
	return jobs
}

// calcCatalog returns a catalog of the n calcJobs.
func calcCatalog(t *testing.T, n int) Catalog {
	t.Helper()
	c, err := NewCatalog(calcJobs(n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gateJob returns a job "G" that blocks until the returned channel
// closes (or its context cancels).
func gateJob() (sweep.Job, chan struct{}) {
	gate := make(chan struct{})
	return sweep.Job{ID: "G", Run: func(ctx context.Context, p sweep.Params) (any, error) {
		select {
		case <-gate:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}, gate
}

// gateCatalog returns a catalog whose single job is gateJob's "G".
func gateCatalog(t *testing.T) (Catalog, chan struct{}) {
	t.Helper()
	g, gate := gateJob()
	c, err := NewCatalog([]sweep.Job{g})
	if err != nil {
		t.Fatal(err)
	}
	return c, gate
}

// waitState polls until job id reaches state (fatal after a deadline).
func waitState(t *testing.T, s *Scheduler, id, state string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSchedulerRunsAndCaches(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(calcCatalog(t, 4), Config{Obs: obs.New(reg, nil)})
	defer s.Close()

	spec := Spec{IDs: []string{"T02", "T00"}, Seed: 7}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"T00", "T02"}; strings.Join(st.Program, ",") != strings.Join(want, ",") {
		t.Errorf("program = %v, want catalog order %v", st.Program, want)
	}
	st = waitState(t, s, st.ID, StateDone)
	if st.Cached {
		t.Error("first run reported cached")
	}
	if st.Lines != 2 || st.Total != 2 {
		t.Errorf("lines/total = %d/%d, want 2/2", st.Lines, st.Total)
	}
	first, err := s.Stream(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Same program, different spelling: must be a cache hit, born done,
	// with byte-identical lines.
	st2, err := s.Submit(Spec{IDs: []string{"T00", "T02"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmission: cached=%v state=%s, want cached done", st2.Cached, st2.State)
	}
	second, err := s.Stream(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.all(), second.all()
	if len(a) != len(b) {
		t.Fatalf("cached stream has %d lines, original %d", len(b), len(a))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Errorf("line %d differs:\n  run:    %s  cached: %s", i, a[i], b[i])
		}
	}

	// A different seed is a different key: no hit.
	st3, err := s.Submit(Spec{IDs: []string{"T00", "T02"}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Error("different seed reported cached")
	}
	waitState(t, s, st3.ID, StateDone)

	snap := reg.Snapshot()
	counts := map[string]float64{}
	for _, smp := range snap {
		counts[smp.Name] = smp.Value
	}
	if counts["serve.cache.hits"] != 1 || counts["serve.cache.misses"] != 2 {
		t.Errorf("cache hits/misses = %v/%v, want 1/2",
			counts["serve.cache.hits"], counts["serve.cache.misses"])
	}
	if counts["serve.jobs.submitted"] != 3 || counts["serve.jobs.done"] != 3 {
		t.Errorf("submitted/done = %v/%v, want 3/3",
			counts["serve.jobs.submitted"], counts["serve.jobs.done"])
	}
}

func TestSchedulerNoCache(t *testing.T) {
	s := NewScheduler(calcCatalog(t, 2), Config{NoCache: true})
	defer s.Close()
	st, err := s.Submit(Spec{IDs: []string{"T00"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	st2, err := s.Submit(Spec{IDs: []string{"T00"}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Error("NoCache scheduler served from cache")
	}
	waitState(t, s, st2.ID, StateDone)
}

func TestSchedulerValidation(t *testing.T) {
	s := NewScheduler(calcCatalog(t, 2), Config{})
	defer s.Close()
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no ids", Spec{}, "no program IDs"},
		{"unknown id", Spec{IDs: []string{"NOPE"}}, "unknown program ID"},
		{"duplicate id", Spec{IDs: []string{"T00", "T00"}}, "duplicate program ID"},
		{"negative workers", Spec{IDs: []string{"T00"}, Workers: -1}, "workers"},
		{"huge tenant", Spec{IDs: []string{"T00"}, Tenant: strings.Repeat("x", 65)}, "tenant"},
		{"control tenant", Spec{IDs: []string{"T00"}, Tenant: "a\nb"}, "control"},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := s.Status("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

// TestSchedulerTenantQuota pins fairness: with one run slot per tenant
// and two global slots, a flood from tenant a cannot hold tenant b out.
func TestSchedulerTenantQuota(t *testing.T) {
	cat, gate := gateCatalog(t)
	s := NewScheduler(cat, Config{TenantQuota: 1, MaxSweeps: 2})
	defer s.Close()

	a1, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "a", Seed: 1})
	a2, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "a", Seed: 2})
	b1, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "b", Seed: 3})

	waitState(t, s, a1.ID, StateRunning)
	waitState(t, s, b1.ID, StateRunning)
	if st, _ := s.Status(a2.ID); st.State != StateQueued {
		t.Errorf("tenant a's second job is %s, want queued behind its quota", st.State)
	}
	snap := s.Snapshot()
	if snap.Running != 2 || snap.Queued != 1 {
		t.Errorf("snapshot running/queued = %d/%d, want 2/1", snap.Running, snap.Queued)
	}
	if snap.RunningByTenant["a"] != 1 || snap.RunningByTenant["b"] != 1 {
		t.Errorf("running by tenant = %v, want a:1 b:1", snap.RunningByTenant)
	}

	close(gate)
	waitState(t, s, a1.ID, StateDone)
	waitState(t, s, a2.ID, StateDone)
	waitState(t, s, b1.ID, StateDone)
}

// TestSchedulerPriority pins the queue order: when the single slot
// frees, the highest-priority queued job runs first regardless of
// submission order.
func TestSchedulerPriority(t *testing.T) {
	cat, gate := gateCatalog(t)
	s := NewScheduler(cat, Config{TenantQuota: 1, MaxSweeps: 1})
	defer s.Close()

	hold, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "hold", Seed: 1})
	waitState(t, s, hold.ID, StateRunning)
	low, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "low", Seed: 2})
	high, _ := s.Submit(Spec{IDs: []string{"G"}, Tenant: "high", Priority: 5, Seed: 3})

	// Cancel the holder: its slot frees while both others wait, and the
	// pick must be the later-submitted, higher-priority job.
	if _, err := s.Cancel(hold.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, high.ID, StateRunning)
	if st, _ := s.Status(low.ID); st.State != StateQueued {
		t.Errorf("low-priority job is %s, want queued while high priority runs", st.State)
	}
	close(gate)
	waitState(t, s, high.ID, StateDone)
	waitState(t, s, low.ID, StateDone)
}

func TestSchedulerCancel(t *testing.T) {
	cat, gate := gateCatalog(t)
	defer close(gate)
	s := NewScheduler(cat, Config{TenantQuota: 1, MaxSweeps: 1})
	defer s.Close()

	running, _ := s.Submit(Spec{IDs: []string{"G"}, Seed: 1})
	waitState(t, s, running.ID, StateRunning)
	queued, _ := s.Submit(Spec{IDs: []string{"G"}, Seed: 2})

	// Cancel the queued job: it terminates without ever running.
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Errorf("queued job after cancel = %s, want cancelled", st.State)
	}
	stream, _ := s.Stream(queued.ID)
	if lines, fin := stream.wait(context.Background(), 0); !fin || len(lines) != 0 {
		t.Errorf("cancelled queued job stream: %d lines fin=%v, want 0 lines finished", len(lines), fin)
	}

	// Cancel the running job: the sweep context cancels, the job lands
	// cancelled, and its slot frees.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st = waitState(t, s, running.ID, StateCancelled)
	if st.Err == "" {
		t.Error("cancelled running job has empty err")
	}
	// Cancelling a terminal job is a no-op.
	if st2, err := s.Cancel(running.ID); err != nil || st2.State != StateCancelled {
		t.Errorf("second cancel: %v %s, want idempotent cancelled", err, st2.State)
	}

	// A cancelled run must not poison the cache: the same spec resubmits
	// as a miss and completes.
	cat2, gate2 := gateCatalog(t)
	close(gate2)
	s2 := NewScheduler(cat2, Config{})
	defer s2.Close()
	redo, _ := s2.Submit(Spec{IDs: []string{"G"}, Seed: 1})
	if redo.Cached {
		t.Error("fresh scheduler reported cached")
	}
	waitState(t, s2, redo.ID, StateDone)
}

func TestSchedulerFailedRunNotCached(t *testing.T) {
	c, err := NewCatalog([]sweep.Job{
		{ID: "OK", Run: func(ctx context.Context, p sweep.Params) (any, error) { return 1, nil }},
		{ID: "BAD", Run: func(ctx context.Context, p sweep.Params) (any, error) { return nil, errors.New("boom") }},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(c, Config{})
	defer s.Close()
	st, _ := s.Submit(Spec{IDs: []string{"OK", "BAD"}})
	st = waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(st.Err, "BAD") || !strings.Contains(st.Err, "boom") {
		t.Errorf("failed job err = %q, want the failing experiment named", st.Err)
	}
	if st.Lines != 2 {
		t.Errorf("failed KeepGoing run streamed %d lines, want 2 (every outcome)", st.Lines)
	}
	st2, _ := s.Submit(Spec{IDs: []string{"OK", "BAD"}})
	if st2.Cached {
		t.Error("failed result was served from cache")
	}
	waitState(t, s, st2.ID, StateFailed)
}

func TestSchedulerClose(t *testing.T) {
	cat, gate := gateCatalog(t)
	defer close(gate)
	s := NewScheduler(cat, Config{TenantQuota: 1, MaxSweeps: 1})
	running, _ := s.Submit(Spec{IDs: []string{"G"}, Seed: 1})
	queued, _ := s.Submit(Spec{IDs: []string{"G"}, Seed: 2})
	waitState(t, s, running.ID, StateRunning)
	s.Close()
	if st, _ := s.Status(running.ID); st.State != StateCancelled {
		t.Errorf("running job after Close = %s, want cancelled", st.State)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCancelled {
		t.Errorf("queued job after Close = %s, want cancelled", st.State)
	}
	if _, err := s.Submit(Spec{IDs: []string{"G"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestCacheKeyNormalization(t *testing.T) {
	a := cacheKey([]string{"E01", "E03"}, Spec{Seed: 5})
	b := cacheKey([]string{"E01", "E03"}, Spec{Seed: 5})
	if a != b {
		t.Error("identical inputs produced different keys")
	}
	if a == cacheKey([]string{"E01", "E03"}, Spec{Seed: 6}) {
		t.Error("seed not in key")
	}
	if a == cacheKey([]string{"E01", "E03"}, Spec{Seed: 5, Quick: true}) {
		t.Error("quick not in key")
	}
	if a == cacheKey([]string{"E01", "E03"}, Spec{Seed: 5, Metrics: true}) {
		t.Error("metrics not in key")
	}
	if a == cacheKey([]string{"E01"}, Spec{Seed: 5}) {
		t.Error("program not in key")
	}
	// Concatenation ambiguity: ["ab","c"] vs ["a","bc"] must differ.
	if cacheKey([]string{"ab", "c"}, Spec{}) == cacheKey([]string{"a", "bc"}, Spec{}) {
		t.Error("ID boundaries not separated in the program hash")
	}
	// Scheduling-only fields stay out of the key by design.
	if a != cacheKey([]string{"E01", "E03"}, Spec{Seed: 5, Tenant: "x", Priority: 9, Workers: 16}) {
		t.Error("scheduling fields leaked into the cache key")
	}
}

func TestCatalogDuplicateID(t *testing.T) {
	_, err := NewCatalog([]sweep.Job{{ID: "A"}, {ID: "A"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("NewCatalog with duplicate IDs = %v, want duplicate error", err)
	}
}
