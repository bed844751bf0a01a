//go:build race

package store

// raceEnabled reports a -race build: its runtime drops sync.Pool items
// at random, so allocation budgets do not hold there.
const raceEnabled = true
