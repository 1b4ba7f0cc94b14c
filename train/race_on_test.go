//go:build race

package train_test

// raceEnabled reports that the race detector is active; allocation-count
// regression tests skip themselves, since race instrumentation (and the
// extra scheduling it causes) inflates AllocsPerRun.
const raceEnabled = true
