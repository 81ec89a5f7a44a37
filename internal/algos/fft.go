package algos

import (
	"fmt"

	"repro/internal/dbsp"
)

// DFT data layout: word 0 holds the running transform value; word 1 is
// reserved scratch.
const fftX = 0

// DFTButterfly returns the first Proposition 8 schedule: the
// straightforward mapping of the n-input DIF FFT dag onto n processors,
// with exactly one i-superstep for each 0 <= i < log n (plus local
// combine steps at finer labels and a closing global barrier). On
// D-BSP(n, O(1), x^α) it runs in O(Σ_i (n/2^i)^α) = O(n^α).
//
// Input x_p is processor p's data word 0; on termination processor p
// holds X[BitReverse(p, log n)] — the DIF dag's natural bit-reversed
// output order.
func DFTButterfly(n int, input func(p int) Word) *dbsp.Program {
	logn := dbsp.Log2(n)
	prog := &dbsp.Program{
		Name:   fmt.Sprintf("dft-butterfly-n%d", n),
		V:      n,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 1},
		Init: func(p int, data []Word) {
			data[fftX] = ((input(p) % P) + P) % P
		},
	}
	// DIF level ℓ: blocks of size n/2^ℓ, halves exchange, then
	// upper' = upper + lower, lower' = (upper - lower)·ω_block^(pos).
	for l := 0; l < logn; l++ {
		l := l
		half := n >> uint(l+1)
		tw := rootPowers(RootOfUnity(2*half), half)
		// Exchange within blocks: an ℓ-superstep (partners share the
		// size-2·half cluster).
		prog.Steps = append(prog.Steps, dbsp.Superstep{Label: l, Run: func(c *dbsp.Ctx) {
			c.Send(c.ID()^half, c.Load(fftX))
		}})
		// Combine locally; no messages, so the finer label ℓ+1 keeps the
		// label sequence ascending (cheap for the simulators).
		prog.Steps = append(prog.Steps, dbsp.Superstep{Label: l + 1, Run: func(c *dbsp.Ctx) {
			_, partner := c.Recv(0)
			mine := c.Load(fftX)
			if c.ID()&half == 0 {
				c.Store(fftX, ModAdd(mine, partner))
			} else {
				w := tw[c.ID()&(half-1)]
				c.Store(fftX, ModMul(ModSub(partner, mine), w))
			}
			c.Work(1)
		}})
	}
	prog.Steps = append(prog.Steps, dbsp.Superstep{Label: 0, Run: func(c *dbsp.Ctx) {}})
	return prog
}

// DFTRecursive returns the second Proposition 8 schedule: the recursive
// decomposition of the n-input DFT into two layers of √n-input
// sub-DFTs separated by transpositions (the four-step schedule),
// yielding 2^i supersteps of label ≈ (1 - 1/2^i)·log n and time
// O(log n · log log n) on D-BSP(n, O(1), log x).
//
// Output is in natural order: processor k holds X[k].
func DFTRecursive(n int, input func(p int) Word) *dbsp.Program {
	logn := dbsp.Log2(n)
	prog := &dbsp.Program{
		Name:   fmt.Sprintf("dft-recursive-n%d", n),
		V:      n,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 1},
		Init: func(p int, data []Word) {
			data[fftX] = ((input(p) % P) + P) % P
		},
	}
	genFFT(prog, 0, n, logn, false)
	// The last emitted superstep is a transpose send (for n > 2): the
	// closing global barrier consumes it.
	prog.Steps = append(prog.Steps, dbsp.Superstep{Label: 0, Run: fftConsume})
	return prog
}

// fftConsume stores a routed value as the new transform value.
func fftConsume(c *dbsp.Ctx) {
	if c.NumRecv() == 1 {
		_, payload := c.Recv(0)
		c.Store(fftX, payload)
	}
}

// fftTransposeStep emits a superstep at label L permuting every
// level-L cluster as an m1×m2 -> m2×m1 transpose: relative position
// j1·m2+j2 sends to j2·m1+j1. The following superstep (emitted by the
// caller) consumes.
func fftTransposeStep(prog *dbsp.Program, L, m1, m2 int) {
	prog.Steps = append(prog.Steps, dbsp.Superstep{
		Label:     L,
		Transpose: &dbsp.TransposeRoute{M1: m1, M2: m2},
		Run: func(c *dbsp.Ctx) {
			fftConsume(c)
			cs := dbsp.ClusterSize(c.V(), L)
			lo := (c.ID() / cs) * cs
			rel := c.ID() - lo
			j1, j2 := rel/m2, rel%m2
			c.Send(lo+j2*m1+j1, c.Load(fftX))
		},
	})
}

// genFFT emits the supersteps computing, within every level-L cluster
// (size sz), the sz-point DFT (or inverse DFT, without the 1/sz
// scaling) of the values held in cluster-relative order, leaving the
// result in cluster-relative natural order.
func genFFT(prog *dbsp.Program, L, sz, logn int, inv bool) {
	if sz == 1 {
		return
	}
	if sz == 2 {
		// Single butterfly within the 2-cluster at label logn-1.
		prog.Steps = append(prog.Steps, dbsp.Superstep{Label: logn - 1, Run: func(c *dbsp.Ctx) {
			fftConsume(c)
			c.Send(c.ID()^1, c.Load(fftX))
		}})
		prog.Steps = append(prog.Steps, dbsp.Superstep{Label: logn, Run: func(c *dbsp.Ctx) {
			_, partner := c.Recv(0)
			mine := c.Load(fftX)
			if c.ID()&1 == 0 {
				c.Store(fftX, ModAdd(mine, partner))
			} else {
				c.Store(fftX, ModSub(partner, mine))
			}
			c.Work(1)
		}})
		return
	}
	logsz := dbsp.Log2(sz)
	m1 := 1 << uint(logsz/2)
	m2 := sz / m1 // m2 >= m1
	// View the cluster as an m1×m2 row-major matrix, x[j] at j = j1·m2+j2.
	// Step 1: transpose to m2×m1 so the inner (size-m1, over j1) DFTs
	// become row DFTs on contiguous subclusters.
	fftTransposeStep(prog, L, m1, m2)
	// Step 2: row DFTs of size m1 within (L + log m2)-clusters.
	genFFT(prog, L+dbsp.Log2(m2), m1, logn, inv)
	// Step 3: twiddle — processor at position j2·m1+k1 multiplies by
	// ω_sz^(j2·k1). Local; folded with the consume of any pending route.
	tw := rootPowers(fftRoot(sz, inv), sz)
	prog.Steps = append(prog.Steps, dbsp.Superstep{Label: logn, Run: func(c *dbsp.Ctx) {
		fftConsume(c)
		cs := dbsp.ClusterSize(c.V(), L)
		lo := (c.ID() / cs) * cs
		rel := c.ID() - lo
		j2, k1 := rel/m1, rel%m1
		c.Store(fftX, ModMul(c.Load(fftX), tw[j2*k1]))
		c.Work(1)
	}})
	// Step 4: transpose back to m1×m2 so the outer (size-m2, over j2)
	// DFTs are row DFTs.
	fftTransposeStep(prog, L, m2, m1)
	// Step 5: row DFTs of size m2 within (L + log m1)-clusters.
	genFFT(prog, L+dbsp.Log2(m1), m2, logn, inv)
	// Step 6: transpose m1×m2 -> m2×m1: position k1·m2+k2 -> k2·m1+k1,
	// leaving X[k1 + m1·k2] at relative position k1+m1·k2 — natural order.
	fftTransposeStep(prog, L, m1, m2)
}

// rootPowers returns the table w^0, …, w^(n-1) mod P, which a program
// builds once so that its handlers index twiddle factors instead of
// computing them per processor and superstep.
func rootPowers(w Word, n int) []Word {
	pw := make([]Word, n)
	x := Word(1)
	for i := range pw {
		pw[i] = x
		x = ModMul(x, w)
	}
	return pw
}

// fftRoot returns the primitive sz-th root (or its inverse) used by the
// transform direction.
func fftRoot(sz int, inv bool) Word {
	w := RootOfUnity(sz)
	if inv {
		return ModPow(w, P-2) // w^{-1} by Fermat
	}
	return w
}

// Convolution returns a program computing the cyclic convolution of the
// two length-n sequences a and b over Z_P:
//
//	c[k] = Σ_i a[i]·b[(k-i) mod n]  (mod P),
//
// by the classic transform pipeline — forward DFT of both inputs
// (recursive four-step schedule), pointwise product, inverse DFT,
// 1/n scaling — all expressed as one D-BSP program. Processor k ends
// with c[k] in data word 0. The program is the polynomial-multiplication
// workload the paper's DFT case study ultimately serves.
func Convolution(n int, a, b func(p int) Word) *dbsp.Program {
	logn := dbsp.Log2(n)
	prog := &dbsp.Program{
		Name:   fmt.Sprintf("convolution-n%d", n),
		V:      n,
		Layout: dbsp.Layout{Data: 3, MaxMsgs: 1},
		Init: func(p int, data []Word) {
			data[fftX] = ((a(p) % P) + P) % P
			data[2] = ((b(p) % P) + P) % P
		},
	}
	local := func(run func(c *dbsp.Ctx)) dbsp.Superstep {
		return dbsp.Superstep{Label: logn, Run: run}
	}
	// Forward transform of a (word 0).
	genFFT(prog, 0, n, logn, false)
	// Swap the transformed a into word 2 and bring b forward, consuming
	// the pending transpose.
	prog.Steps = append(prog.Steps, local(func(c *dbsp.Ctx) {
		fftConsume(c)
		ahat := c.Load(fftX)
		c.Store(fftX, c.Load(2))
		c.Store(2, ahat)
	}))
	// Forward transform of b.
	genFFT(prog, 0, n, logn, false)
	// Pointwise product into word 0.
	prog.Steps = append(prog.Steps, local(func(c *dbsp.Ctx) {
		fftConsume(c)
		c.Store(fftX, ModMul(c.Load(fftX), c.Load(2)))
		c.Work(1)
	}))
	// Inverse transform and 1/n scaling.
	genFFT(prog, 0, n, logn, true)
	ninv := ModPow(Word(n), P-2)
	prog.Steps = append(prog.Steps, dbsp.Superstep{Label: 0, Run: func(c *dbsp.Ctx) {
		fftConsume(c)
		c.Store(fftX, ModMul(c.Load(fftX), ninv))
		c.Work(1)
	}})
	return prog
}
