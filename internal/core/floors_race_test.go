//go:build race

package core_test

// The race detector drops sync.Pool items at random, so a statement's
// allocation count varies from run to run; the exact floors are not held.
func init() { raceBuild = true }
