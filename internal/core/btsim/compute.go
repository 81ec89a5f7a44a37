package btsim

import "repro/internal/cost"

// compute simulates the local computation of superstep s for the
// cluster of n blocks packed at the top of memory (processors
// firstProc..firstProc+n-1 in order), following the COMPUTE recursion
// of Figure 6: contexts are staged to the top in chunks of c(n), each
// chunk processed recursively, with the free blocks [n, 2n) providing
// the room the shifts and swaps need. Overhead is O(µ·n·c*(n)).
func (st *state) compute(n int64, firstProc, s int) {
	if n == 1 {
		st.guest.Run(st.prog.Steps[s].Run, st.m.Machine, 0, firstProc, st.prog.Steps[s].Label)
		return
	}
	mu := st.mu
	c := cost.Chunk(st.f, mu, n) // power of two, <= n/2
	t := n / c
	// Shift blocks [c, n) right by c, opening the chunk-swap buffer at
	// [c, 2c).
	st.shiftRight(c*mu, (n-c)*mu, c*mu)
	st.compute(c, firstProc, s)
	for j := int64(2); j <= t; j++ {
		st.swapChunk(j, c)
		st.compute(c, firstProc+int((j-1)*c), s)
		st.swapChunk(j, c)
	}
	// Shift back.
	st.shiftLeft(2*c*mu, (n-c)*mu, c*mu)
}

// swapChunk exchanges blocks [0, c) with blocks [j·c, (j+1)·c) using
// the free region [c, 2c) as scratch: three block transfers.
func (st *state) swapChunk(j, c int64) {
	mu := st.mu
	st.m.CopyRange(0, c*mu, c*mu)
	st.m.CopyRange(j*c*mu, 0, c*mu)
	st.m.CopyRange(c*mu, j*c*mu, c*mu)
}
