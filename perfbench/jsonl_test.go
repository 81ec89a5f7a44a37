package main

import (
	"strings"
	"testing"
)

const refStream = `{"id":"E01","seq":0,"status":"ok","seed":5,"wall_ms":1.25,"value":{"rows":[1,2],"wall_ms":3}}
{"id":"E02","seq":1,"status":"ok","seed":6,"start_ms":1.3,"wall_ms":0.5,"value":{"rows":[3]}}
`

func TestMaskedCompareMasksOnlyTimingFields(t *testing.T) {
	for _, c := range []struct {
		name  string
		got   string
		equal bool
	}{
		{"identical", refStream, true},
		{"other timings",
			strings.NewReplacer(`"wall_ms":1.25`, `"wall_ms":9.75`, `"start_ms":1.3`, `"start_ms":42`).Replace(refStream), true},
		{"start_ms present where the reference omits it",
			strings.Replace(refStream, `"seed":5,`, `"seed":5,"start_ms":0.1,`, 1), true},
		{"different value",
			strings.Replace(refStream, `"rows":[3]`, `"rows":[4]`, 1), false},
		{"different seed",
			strings.Replace(refStream, `"seed":6`, `"seed":7`, 1), false},
		{"different status",
			strings.Replace(refStream, `"status":"ok","seed":6`, `"status":"failed","seed":6`, 1), false},
		{"wall_ms nested inside the value is not masked",
			strings.Replace(refStream, `"wall_ms":3}`, `"wall_ms":4}`, 1), false},
		{"reordered members",
			strings.Replace(refStream, `"id":"E01","seq":0`, `"seq":0,"id":"E01"`, 1), false},
		{"missing record",
			strings.SplitAfter(refStream, "\n")[0], false},
	} {
		diff, err := maskedEqual([]byte(c.got), []byte(refStream))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if (diff == "") != c.equal {
			t.Errorf("%s: masked compare says %q, want equal=%t", c.name, diff, c.equal)
		}
	}
	if _, err := maskedEqual([]byte("[1]\n"), []byte("[1]\n")); err == nil {
		t.Errorf("a non-object record compared without error")
	}
}
