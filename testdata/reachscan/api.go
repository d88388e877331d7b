// Package fixture is the input of TestReachScanFixture. Every declaration
// under internal/ whose name contains "dead" is one that only tests could
// reach; the scan must report exactly those.
package fixture

import "fixture/internal/x"

// Series hands users x.Series, its exported methods, and those of the types
// its exported fields hold.
type Series = x.Series

// Run is the module's one non-test call into internal/.
func Run() int64 { return x.LiveCalled() }
