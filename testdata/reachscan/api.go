// Package fixture is the input of TestReachScanFixture. Every declaration
// whose name contains "dead" is one that no consumer reaches; the scan must
// report exactly those.
package fixture

import "fixture/internal/x"

// Series hands users x.Series, its exported methods, and those of the types
// its exported fields hold.
type Series = x.Series

// Run is reached only from the consumer package cmd/use.
func Run() int64 { return x.LiveCalled() }

// LiveByExample is reached only from an Example function.
func LiveByExample() Series { return Series{} }

// DeadAPI is reached by nothing, so neither is what it calls.
func DeadAPI() { x.Hidden{}.DeadViaAPI() }

// DeadHolder's declaration is the only reference to DeadHeld: a type owns
// the names it references.
type DeadHolder struct{ Held DeadHeld }

type DeadHeld struct{}
