//go:build race

package join

const raceEnabled = true
