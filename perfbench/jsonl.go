package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// maskedFields are the sweep record fields that vary between
// byte-identical runs: when a job started and how long it took. They
// are masked at the top level of each record only.
var maskedFields = map[string]bool{"start_ms": true, "wall_ms": true}

// maskRecord re-encodes one JSONL record with its top-level start_ms
// and wall_ms members removed, keeping every other member's key order
// and raw bytes. start_ms is omitted from a record when it is zero, so
// dropping the key (rather than zeroing its value) also equates a
// record that has it with one that does not.
func maskRecord(line []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("record is not a JSON object")
	}
	var out bytes.Buffer
	out.WriteByte('{')
	first := true
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, _ := tok.(string)
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, err
		}
		if maskedFields[key] {
			continue
		}
		if !first {
			out.WriteByte(',')
		}
		first = false
		k, _ := json.Marshal(key)
		out.Write(k)
		out.WriteByte(':')
		out.Write(raw)
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	out.WriteByte('}')
	return out.Bytes(), nil
}

// maskedEqual compares two JSONL streams record by record with only
// the top-level start_ms and wall_ms masked. It returns a description
// of the first difference, or "" when the streams agree.
func maskedEqual(got, want []byte) (string, error) {
	g := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	w := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(g) != len(w) {
		return fmt.Sprintf("%d records, want %d", len(g), len(w)), nil
	}
	for i := range g {
		mg, err := maskRecord(g[i])
		if err != nil {
			return "", fmt.Errorf("record %d: %w", i+1, err)
		}
		mw, err := maskRecord(w[i])
		if err != nil {
			return "", fmt.Errorf("reference record %d: %w", i+1, err)
		}
		if !bytes.Equal(mg, mw) {
			return fmt.Sprintf("record %d differs: %s, want %s", i+1, mg, mw), nil
		}
	}
	return "", nil
}
