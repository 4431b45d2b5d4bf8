//go:build race

package datacomp_test

func init() { raceEnabled = true }
