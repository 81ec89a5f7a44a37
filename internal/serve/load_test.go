package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestLoadCacheHitLatencyFlat is the load gate from the service
// design: with every run slot saturated by in-flight sweeps, 1000
// concurrent cache-hit submissions must all return without queueing —
// their p99 latency stays in the same regime as their p50 instead of
// degrading toward the sweep wall time a queued miss would pay. Run at
// three (quota, workers) settings to show the flatness is a property
// of the cache path, not of one scheduler tuning.
func TestLoadCacheHitLatencyFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const submissions = 1000

	settings := []Config{
		{TenantQuota: 1, MaxSweeps: 1, Workers: 1},
		{TenantQuota: 2, MaxSweeps: 2, Workers: 4},
		{TenantQuota: 4, MaxSweeps: 4, Workers: 16},
	}
	for _, cfg := range settings {
		name := fmt.Sprintf("quota%d_sweeps%d_workers%d", cfg.TenantQuota, cfg.MaxSweeps, cfg.Workers)
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			catalog, err := NewCatalog([]sweep.Job{
				{ID: "FAST", Run: func(ctx context.Context, p sweep.Params) (any, error) {
					return p.Seed, nil
				}},
				{ID: "SLOW", Run: func(ctx context.Context, p sweep.Params) (any, error) {
					select {
					case <-gate:
						return "ok", nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			cfg.Obs = obs.New(reg, nil)
			s := NewScheduler(catalog, cfg)
			defer s.Close()

			// Warm the cache with the spec the burst will hit.
			hit := Spec{IDs: []string{"FAST"}, Seed: 7}
			warm, err := s.Submit(hit)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, warm.ID, StateDone)

			// Saturate every run slot with gated sweeps from distinct
			// tenants, so anything that needs a slot waits indefinitely.
			for i := 0; i < cfg.MaxSweeps; i++ {
				blk, err := s.Submit(Spec{
					IDs: []string{"SLOW"}, Seed: uint64(100 + i),
					Tenant: fmt.Sprintf("blocker%d", i),
				})
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, s, blk.ID, StateRunning)
			}
			// One queued miss proves the slots really are saturated.
			miss, err := s.Submit(Spec{IDs: []string{"SLOW"}, Seed: 999, Tenant: "blocker0"})
			if err != nil {
				t.Fatal(err)
			}

			hitsBefore := metricValue(t, reg, "serve.cache.hits")

			lat := make([]time.Duration, submissions)
			var wg sync.WaitGroup
			var start sync.WaitGroup
			start.Add(1)
			for i := 0; i < submissions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					start.Wait()
					t0 := time.Now()
					st, err := s.Submit(hit)
					lat[i] = time.Since(t0)
					if err != nil {
						t.Errorf("submission %d: %v", i, err)
						return
					}
					if !st.Cached || st.State != StateDone {
						t.Errorf("submission %d: cached=%v state=%s, want cached done", i, st.Cached, st.State)
					}
				}(i)
			}
			start.Done()
			wg.Wait()

			if st, _ := s.Status(miss.ID); st.State != StateQueued {
				t.Fatalf("canary miss is %s during the burst, want queued (slots were not saturated)", st.State)
			}
			if got := metricValue(t, reg, "serve.cache.hits") - hitsBefore; got != submissions {
				t.Errorf("cache hits during burst = %d, want %d", got, submissions)
			}

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p50 := lat[submissions/2]
			p99 := lat[submissions*99/100]
			t.Logf("%s: cache-hit latency p50=%v p99=%v max=%v", name, p50, p99, lat[submissions-1])
			// Flatness: p99 stays within the lock-contention regime of
			// p50, far from the unbounded wait a queued miss pays. The
			// absolute ceiling keeps the bound meaningful when p50 is
			// sub-microsecond.
			if limit := 20*p50 + 50*time.Millisecond; p99 > limit {
				t.Errorf("cache-hit p99 %v not flat vs p50 %v (limit %v): hits queued behind sweeps", p99, p50, limit)
			}

			close(gate)
			waitState(t, s, miss.ID, StateDone)
		})
	}
}

// metricValue reads one counter or gauge from a registry snapshot.
func metricValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return int64(s.Value)
		}
	}
	return 0
}
