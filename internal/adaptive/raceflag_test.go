//go:build race

package adaptive

func init() { raceEnabled = true }
