// metrics.go is the obs surface the floatfold fixtures call. Every
// exported pointer-receiver method carries the nilguard discipline,
// like the real package.
package obs

// FloatCounter mirrors the real float metric for the floatfold
// fixtures: Add accumulates into the receiver, so its summary names
// parameter 0 as the accumulator's owner.
type FloatCounter struct {
	v float64
}

// Add accumulates x into the sum.
func (c *FloatCounter) Add(x float64) {
	if c == nil {
		return
	}
	c.v += x
}

// Sum reads the accumulated value (read-only).
func (c *FloatCounter) Sum() float64 {
	if c == nil {
		return 0
	}
	return c.v
}
