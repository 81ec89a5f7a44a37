package cost

// Chunk returns c(n) for the COMPUTE recursion of Section 5.2.1: the
// greatest power of two with c(n) <= min(f(µ·n)/µ, n/2), where µ is the
// context size in words. The recursive local-computation schedule brings
// processor contexts to the top of BT memory in chunks of c(n) contexts,
// which balances the block-transfer setup cost f(µn) against chunk size.
// Chunk returns at least 1; n must be >= 2 for a proper sub-chunk.
func Chunk(f Func, mu, n int64) int64 {
	if n < 2 {
		return 1
	}
	bound := f.Cost(mu*n) / float64(mu)
	if nh := float64(n / 2); nh < bound {
		bound = nh
	}
	c := int64(1)
	for c*2 <= int64(bound) {
		c *= 2
	}
	return c
}

// CStar returns c*(n) = min{k >= 1 : c^(k)(n) <= 1}: the recursion depth
// of COMPUTE, which drives its overhead bound TM(n) = O(µ·n·c*(n))
// (Section 5.2.1). For f = log x this is O(log*(µn)); for f = x^α it is
// O(log log(µn)).
func CStar(f Func, mu, n int64) int {
	if n <= 1 {
		return 1
	}
	x := n
	for k := 1; ; k++ {
		x = Chunk(f, mu, x)
		if x <= 1 || k > 256 {
			return k
		}
	}
}
