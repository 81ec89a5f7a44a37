package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// A traced run also takes a CPU profile of its timed phase. The spans
// only record the calls the benchmark itself makes; the profile's
// samples show which layers ran underneath, so the layer separation of
// each workload is measured rather than assumed.

// stackSample is one CPU profile sample: how many times the stack was
// seen and the functions on it, innermost first.
type stackSample struct {
	Count int64
	Funcs []string
}

// layerPackages maps the package of a function to the layer the
// separation checks name.
var layerPackages = map[string]string{
	"repro/internal/core/hmmsim":  "hmmsim",
	"repro/internal/core/btsim":   "btsim",
	"repro/internal/core/selfsim": "selfsim",
	"repro/internal/dbsp":         "dbsp",
	"repro/internal/sweep":        "sweep",
	"repro/internal/experiments":  "experiments",
	"repro/internal/serve":        "serve",
}

// profileLayers lists the layers counted, in print order.
var profileLayers = []string{"hmmsim", "btsim", "selfsim", "dbsp", "sweep", "experiments", "serve"}

// cpuProfile is the CPU profile of a traced run's timed phase. A nil
// *cpuProfile, which untraced runs get, records nothing.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile(cfg config) (*cpuProfile, error) {
	if !cfg.trace {
		return nil, nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns it, gzipped as runtime/pprof
// writes it.
func (p *cpuProfile) stop() []byte {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// separationViolated reports whether a sample's stack breaks the
// workload's layer separation: simulate runs no sweep, experiments or
// serve code, and reaches dbsp only inside a simulator; engine runs no
// simulator, sweep, experiments or serve code; dbspd runs a simulator
// only inside an experiment table.
func separationViolated(workload string, in map[string]bool) bool {
	sim := in["hmmsim"] || in["btsim"] || in["selfsim"]
	switch workload {
	case "simulate":
		return in["sweep"] || in["experiments"] || in["serve"] || (in["dbsp"] && !sim)
	case "engine":
		return sim || in["sweep"] || in["experiments"] || in["serve"]
	default:
		return sim && !in["experiments"]
	}
}

// funcPackage returns the import path of a fully qualified Go function
// name: "repro/internal/dbsp.(*Ctx).Send" → "repro/internal/dbsp".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// stackLayers is the set of layers with a function on a sample's stack.
func stackLayers(s stackSample) map[string]bool {
	in := map[string]bool{}
	for _, f := range s.Funcs {
		if l, ok := layerPackages[funcPackage(f)]; ok {
			in[l] = true
		}
	}
	return in
}

// parseProfile decodes a gzipped pprof profile (the format
// runtime/pprof writes) into its samples. It reads only what the
// layer counts need: samples, locations, functions and strings.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64][]uint64{} // location id → function ids, innermost first
		funcStr = map[uint64]uint64{}   // function id → name's string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{Count: 1}
		if len(s.values) > 0 {
			st.Count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFunc[loc] {
				if i := funcStr[fn]; i < uint64(len(strs)) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values: one value v,
// or the packed varints in b when the field came length-delimited.
func appendPacked(xs []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

// eachField calls fn for every field of a protobuf message: the field
// number, and the value (varint and fixed-width fields) or the bytes
// (length-delimited fields; nil otherwise).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("short fixed-width field")
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
