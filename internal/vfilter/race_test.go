//go:build race

package vfilter

func init() { raceEnabled = true }
