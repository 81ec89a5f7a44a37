package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"

	"repro/internal/dbsp"
)

// Checks compare FNV-1a digests instead of keeping whole reference
// outputs in memory. Words enter a digest as little-endian bytes.

// putWords writes 64-bit words into h.
func putWords(h hash.Hash64, ws ...uint64) {
	buf := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
}

// digest hashes a run's final contexts, context boundaries included.
func digest(ctxs [][]dbsp.Word) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, c := range ctxs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(c)))
		for _, w := range c {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// digestBytes hashes a byte stream.
func digestBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
