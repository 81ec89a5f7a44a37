package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// httpStatus issues method on path and returns the response code.
func httpStatus(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitStreamDone blocks until job id's result stream finishes.
func waitStreamDone(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	st, err := s.Stream(id)
	if err != nil {
		t.Fatalf("Stream(%s): %v", id, err)
	}
	for off := 0; ; {
		lines, fin := st.wait(context.Background(), off)
		off += len(lines)
		if fin {
			return
		}
	}
}

// TestEvictedJobsAnswerGone submits more than keepFinished jobs: the
// oldest records leave the table and answer 410 Gone (ErrEvicted in
// the scheduler), a never-issued ID still answers 404, List holds the
// keepFinished most recent finished jobs in submission order, and a
// reader that attached before its job was evicted reads every line.
func TestEvictedJobsAnswerGone(t *testing.T) {
	g, gate := gateJob()
	catalog, err := NewCatalog(append(calcJobs(2), g))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc, ts := newTestServer(t, catalog, Options{Registry: reg})
	s := svc.Scheduler()

	gated := submit(t, ts.URL, Spec{IDs: []string{"T00", "G"}, Seed: 1})
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + gated.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	follower := bufio.NewReader(resp.Body)
	first, err := follower.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first line of the gated job: %v", err)
	}
	close(gate)
	waitState(t, s, gated.ID, StateDone)

	// One cold run, then hits of it: each is born done and retired at
	// once, so the flood is cheap.
	const extra = 50
	hit := Spec{IDs: []string{"T01"}, Seed: 2}
	warm, err := s.Submit(hit)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, warm.ID, StateDone)
	for i := 0; i < keepFinished+extra-2; i++ {
		if st, err := s.Submit(hit); err != nil || !st.Cached {
			t.Fatalf("hit %d: cached=%v err=%v", i, st.Cached, err)
		}
	}
	submitted := keepFinished + extra
	evicted := submitted - keepFinished

	for _, id := range []string{gated.ID, warm.ID, jobID(evicted)} {
		for _, c := range []struct{ method, path string }{
			{"GET", "/api/v1/jobs/" + id},
			{"GET", "/api/v1/jobs/" + id + "/results"},
			{"DELETE", "/api/v1/jobs/" + id},
		} {
			if code := httpStatus(t, c.method, ts.URL+c.path); code != http.StatusGone {
				t.Errorf("%s %s: status %d, want 410", c.method, c.path, code)
			}
		}
		if _, err := s.Status(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Status(%s) = %v, want ErrEvicted", id, err)
		}
		if _, err := s.Stream(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Stream(%s) = %v, want ErrEvicted", id, err)
		}
		if _, err := s.Cancel(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("Cancel(%s) = %v, want ErrEvicted", id, err)
		}
	}
	for _, id := range []string{"j999999", "j0000001", "000001", "j-00001"} {
		if code := httpStatus(t, "GET", ts.URL+"/api/v1/jobs/"+id); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", id, code)
		}
		if _, err := s.Status(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Status(%s) = %v, want ErrNotFound", id, err)
		}
	}
	if st, err := s.Status(jobID(evicted + 1)); err != nil || st.State != StateDone {
		t.Errorf("oldest retained job: %+v, %v", st, err)
	}

	list := s.List()
	if len(list) != keepFinished {
		t.Fatalf("List holds %d jobs, want %d", len(list), keepFinished)
	}
	for i, st := range list {
		if want := jobID(evicted + 1 + i); st.ID != want {
			t.Fatalf("List[%d] = %s, want %s (submission order)", i, st.ID, want)
		}
	}
	if got := metricValue(t, reg, "serve.jobs.evicted"); got != int64(evicted) {
		t.Errorf("serve.jobs.evicted = %d, want %d", got, evicted)
	}

	rest, err := io.ReadAll(follower)
	if err != nil {
		t.Fatal(err)
	}
	got := append(first, rest...)
	if n := bytes.Count(got, []byte("\n")); n != gated.Total {
		t.Errorf("follower of the evicted job read %d lines, want %d:\n%s", n, gated.Total, got)
	}
}

// TestCancelRaceRetiresOnce cancels jobs while they queue, run and
// finish, with a retention of a few records. Every job must be retired
// exactly once: once all are terminal, the retained records plus the
// evicted count equal the submissions, and no more than the retention
// count are retained.
func TestCancelRaceRetiresOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScheduler(calcCatalog(t, 3), Config{Obs: obs.New(reg, nil), TenantQuota: 2, MaxSweeps: 2})
	defer s.Close()
	s.keep = 8

	const submitters, each = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Seeds repeat across submitters, so some submissions
				// are hits and some race a store of their key.
				st, err := s.Submit(Spec{IDs: []string{"T00", "T02"}, Seed: uint64(i), Tenant: fmt.Sprint(g % 2)})
				if err != nil {
					t.Error(err)
					return
				}
				// Every third job is cancelled at once, most likely
				// queued; the others once their first line is out, as
				// the run finishes its second.
				if i%3 != 0 {
					stream, err := s.Stream(st.ID)
					if errors.Is(err, ErrEvicted) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					stream.wait(context.Background(), 0)
				}
				if _, err := s.Cancel(st.ID); err != nil && !errors.Is(err, ErrEvicted) {
					t.Errorf("Cancel(%s): %v", st.ID, err)
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for snap := s.Snapshot(); snap.Queued+snap.Running > 0; snap = s.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("jobs still active: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}

	const submitted = submitters * each
	list := s.List()
	evicted := metricValue(t, reg, "serve.jobs.evicted")
	if len(list) > s.keep {
		t.Errorf("%d records retained, want at most %d", len(list), s.keep)
	}
	if int64(len(list))+evicted != submitted {
		t.Errorf("retained %d + evicted %d = %d, want %d submissions", len(list), evicted, int64(len(list))+evicted, submitted)
	}
	snap := s.Snapshot()
	if n := snap.Done + snap.Failed + snap.Cancelled; n != submitted {
		t.Errorf("terminal jobs %d (%+v), want %d", n, snap, submitted)
	}
	for _, st := range list {
		if st.State == StateQueued || st.State == StateRunning {
			t.Errorf("retained job %s is %s", st.ID, st.State)
		}
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSoakBoundedState runs a few thousand distinct submissions, with
// resubmissions of recent keys in between, under a small cache budget.
// The live heap must stop growing once the retention count is reached,
// the cache must stay within its budget, and the table must hold at
// most keepFinished finished jobs.
func TestSoakBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		budget   = 32 << 10
		distinct = 3000
		// heapBound and growthBound leave room for the runtime's own
		// noise; without the retention count and the budget the table
		// and cache grow by about 1 MB per thousand submissions here.
		heapBound   = 4 << 20
		growthBound = 256 << 10
	)
	reg := obs.NewRegistry()
	s := NewScheduler(calcCatalog(t, 4), Config{Obs: obs.New(reg, nil), Workers: 1})
	defer s.Close()
	s.cache.budget = budget

	base := liveHeap()
	var mid uint64
	for i := 0; i < distinct; i++ {
		st, err := s.Submit(Spec{IDs: []string{"T00", "T01", "T03"}, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitStreamDone(t, s, st.ID)
		if i%3 == 0 && i > 0 {
			if _, err := s.Submit(Spec{IDs: []string{"T00", "T01", "T03"}, Seed: uint64(i - 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if i == distinct/2 {
			mid = liveHeap()
		}
	}
	end := liveHeap()
	t.Logf("live heap: base %d, mid %d, end %d bytes", base, mid, end)
	if end > base+heapBound {
		t.Errorf("live heap grew by %d bytes over the soak, bound %d", end-base, heapBound)
	}
	if end > mid+growthBound {
		t.Errorf("live heap grew by %d bytes over the second half, bound %d", end-mid, growthBound)
	}
	if got := metricValue(t, reg, "serve.cache.bytes"); got <= 0 || got > budget {
		t.Errorf("serve.cache.bytes = %d, want in (0, %d]", got, budget)
	}
	if metricValue(t, reg, "serve.cache.evictions") == 0 {
		t.Error("no cache evictions under a small budget")
	}
	if n := len(s.List()); n > keepFinished {
		t.Errorf("table holds %d finished jobs, want at most %d", n, keepFinished)
	}
}

// TestResultCacheLRU pins the cache's policy: a hit moves its entry to
// the front, a store evicts from the back until the budget holds, and
// an entry larger than the budget evicts itself.
func TestResultCacheLRU(t *testing.T) {
	line := func(n int) [][]byte { return [][]byte{make([]byte, n)} }
	c := newResultCache(30)
	for _, k := range []string{"a", "b", "c"} {
		if ev := c.put(k, line(10)); ev != 0 {
			t.Fatalf("put %s evicted %d within budget", k, ev)
		}
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if ev := c.put("d", line(10)); ev != 1 {
		t.Fatalf("put d evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived; the least recently used entry should go")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	if c.size != 30 {
		t.Errorf("size = %d, want 30", c.size)
	}
	if ev := c.put("huge", line(31)); ev != 4 || c.size != 0 || c.lru.Len() != 0 {
		t.Errorf("oversized put evicted %d, size %d, entries %d; want 4, 0, 0", ev, c.size, c.lru.Len())
	}
}
