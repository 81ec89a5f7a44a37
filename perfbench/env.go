package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is the record every run prints next to its numbers, so
// two ledgers are compared only when they come from comparable hosts.
type environment struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	L2         string  `json:"l2_cache"`
	L3         string  `json:"l3_cache"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func readEnvironment(root string) environment {
	return environment{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reports CPU 0's unified or data cache of the given level
// from sysfs, e.g. "2048K".
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if readTrim(filepath.Join(d, "level")) != string(rune('0'+level)) {
			continue
		}
		if t := readTrim(filepath.Join(d, "type")); t == "Instruction" {
			continue
		}
		return readTrim(filepath.Join(d, "size"))
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// gitCommit resolves HEAD from the .git directory without running git.
// Checkouts exported without history have none.
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	if head == "" {
		return "none"
	}
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if c := readTrim(filepath.Join(root, ".git", ref)); c != "" {
		return c
	}
	packed := readTrim(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(packed, "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root (in
// path order, skipping hidden and build directories): it identifies
// the code measured even where no commit id is available.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
