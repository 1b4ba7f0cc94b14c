//go:build !race

package train_test

// raceEnabled reports that the race detector is active.
const raceEnabled = false
