package main

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "hmmsim.Simulate", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 2, Name: "bench.check", Start: 12 * ms, End: 15 * ms},
		// Overlaps span 2: the union, not the sum, is subtracted.
		{ID: 4, Parent: 1, Name: "btsim.Simulate", Start: 20 * ms, End: 50 * ms},
		// Runs past its parent: only the part inside counts.
		{ID: 5, Parent: 1, Name: "selfsim.Simulate", Start: 90 * ms, End: 120 * ms},
		{ID: 6, Name: "bench.pass", Start: 200 * ms, End: 210 * ms},
	}
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // children cover [10,50) and [90,100)
		2: 20*ms - 3*ms,
		3: 3 * ms,
		4: 30 * ms,
		5: 30 * ms,
		6: 10 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}

	sum := summarize(spans)
	if len(sum) != 5 || sum[0].Name != "bench.check" {
		t.Fatalf("summary = %+v, want 5 names in order", sum)
	}
	for _, s := range sum {
		if s.Name == "bench.pass" && (s.Calls != 2 || s.TotalMS != 110 || s.SelfMS != 60) {
			t.Errorf("bench.pass summary = %+v, want 2 calls, 110 ms total, 60 ms self", s)
		}
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := newTracer()
	root := tr.begin("dbspd.submission", 0, 7)
	child := tr.begin("serve.submit", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 || spans[0].Req != 7 {
		t.Fatalf("spans = %+v, want a child of %d sharing request 7", spans, root)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
		t.Fatalf("span file: %v, %d bytes", err, len(b))
	}
}

// The tracer may be shared between goroutines.
func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				root := tr.begin("dbspd.submission", 0, int64(c)<<32|int64(n))
				tr.end(tr.begin("serve.submit", root, int64(c)<<32|int64(n)))
				tr.end(root)
			}
		}(c)
	}
	wg.Wait()
	spans := tr.snapshot()
	if len(spans) != 800 {
		t.Fatalf("%d spans, want 800", len(spans))
	}
	for _, s := range spans {
		if s.Parent != 0 && spans[s.Parent-1].Req != s.Req {
			t.Errorf("span %d's parent belongs to another request", s.ID)
		}
	}
}
