//go:build race

package obfuslock

func init() { raceEnabled = true }
