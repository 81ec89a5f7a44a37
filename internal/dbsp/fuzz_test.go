package dbsp

import "testing"

// FuzzTransposeRouteDest checks the defining property of a rational
// permutation route: transposing an M1×M2 matrix and then its M2×M1
// inverse is the identity on every cluster-relative position, and the
// destination always stays inside the cluster. The BT simulator's
// riffle routing and the engine's verification both rely on
// Dest being exactly this bijection.
func FuzzTransposeRouteDest(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint16(0))
	f.Add(uint8(4), uint8(4), uint16(7))
	f.Add(uint8(1), uint8(8), uint16(3))
	f.Add(uint8(63), uint8(63), uint16(4095))
	f.Fuzz(func(t *testing.T, m1Raw, m2Raw uint8, jRaw uint16) {
		m1 := int(m1Raw)%64 + 1
		m2 := int(m2Raw)%64 + 1
		j := int(jRaw) % (m1 * m2)
		tr := &TransposeRoute{M1: m1, M2: m2}
		inv := &TransposeRoute{M1: m2, M2: m1}

		d := tr.Dest(j)
		if d < 0 || d >= m1*m2 {
			t.Fatalf("Dest(%d) = %d outside [0, %d) for %dx%d", j, d, m1*m2, m1, m2)
		}
		if back := inv.Dest(d); back != j {
			t.Fatalf("%dx%d transpose not inverted by %dx%d: j=%d -> %d -> %d",
				m1, m2, m2, m1, j, d, back)
		}
	})
}
