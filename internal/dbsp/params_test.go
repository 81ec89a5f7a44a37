package dbsp

import (
	"testing"

	"repro/internal/cost"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{V: 8, G: cost.Log{}}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{V: 0, G: cost.Log{}},
		{V: 3, G: cost.Log{}},
		{V: -8, G: cost.Log{}},
		{V: 8, G: nil},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, p)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 2, 1024: 10}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestClusterHelpers(t *testing.T) {
	const v = 16
	if got := ClusterSize(v, 0); got != 16 {
		t.Errorf("ClusterSize(16,0) = %d, want 16", got)
	}
	if got := ClusterSize(v, 4); got != 1 {
		t.Errorf("ClusterSize(16,4) = %d, want 1", got)
	}
	if got := ClusterIndex(v, 2, 7); got != 1 {
		t.Errorf("ClusterIndex(16,2,7) = %d, want 1 (procs 4..7)", got)
	}
	lo, hi := ClusterRange(v, 2, 1)
	if lo != 4 || hi != 8 {
		t.Errorf("ClusterRange(16,2,1) = [%d,%d), want [4,8)", lo, hi)
	}
	if !SameCluster(v, 2, 4, 7) || SameCluster(v, 2, 3, 4) {
		t.Error("SameCluster boundary wrong at label 2")
	}
	// The shift and xor forms against the division form p / (v/2^i),
	// exhaustively for v = 2^0 … 2^10, every label and every p, q < v.
	for logv := 0; logv <= 10; logv++ {
		v := 1 << logv
		for label := 0; label <= logv; label++ {
			size := v >> label
			for p := 0; p < v; p++ {
				if got, want := ClusterIndex(v, label, p), p/size; got != want {
					t.Fatalf("ClusterIndex(%d,%d,%d) = %d, want %d", v, label, p, got, want)
				}
				for q := 0; q < v; q++ {
					if got, want := SameCluster(v, label, p, q), p/size == q/size; got != want {
						t.Fatalf("SameCluster(%d,%d,%d,%d) = %v, want %v", v, label, p, q, got, want)
					}
				}
			}
		}
	}
	// Binary decomposition tree: C(i)_j = C(i+1)_{2j} ∪ C(i+1)_{2j+1}.
	for i := 0; i < 4; i++ {
		for j := 0; j < 1<<i; j++ {
			lo, hi := ClusterRange(v, i, j)
			llo, _ := ClusterRange(v, i+1, 2*j)
			_, rhi := ClusterRange(v, i+1, 2*j+1)
			if llo != lo || rhi != hi {
				t.Errorf("decomposition tree broken at level %d cluster %d", i, j)
			}
		}
	}
}

func TestCommCost(t *testing.T) {
	g := cost.Poly{Alpha: 0.5}
	// i-superstep message cost = g(µ v / 2^i): µ=4, v=16, i=2 -> g(16)=4.
	if got := CommCost(g, 4, 16, 2); got != 4 {
		t.Errorf("CommCost = %g, want 4", got)
	}
	// Finer clusters are cheaper.
	if CommCost(g, 4, 16, 4) >= CommCost(g, 4, 16, 0) {
		t.Error("CommCost not decreasing in label")
	}
}
