//go:build !race

package join

const raceEnabled = false
