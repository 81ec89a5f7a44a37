//go:build race

package main

// A race-built daemon exits 66 when it detected a data race, so every
// test that requires exit code 0 also fails on a race in the daemon.
func init() { dbspdBuildFlags = append(dbspdBuildFlags, "-race") }
