package x

import "fixture/internal/metrics"

type Stats struct {
	LiveRead  metrics.Counter // incremented and read
	DeadWrite metrics.Counter // only incremented
	liveField int             // written and read
	deadField int             // only written
}

var stats = Stats{deadField: 1}

// LiveCalled is called from package fixture.
func LiveCalled() int64 {
	stats.LiveRead.Inc()
	stats.DeadWrite.Inc()
	stats.liveField = 2
	stats.deadField = stats.liveField
	stats.deadField *= 2
	stats.deadField++
	liveTable[0]()
	return stats.LiveRead.Load()
}

// liveTable is read by LiveCalled, so what it holds is reached.
var liveTable = []func(){liveViaVar}

func liveViaVar() {}

// deadTable is read only by deadReader, which nothing reaches.
var deadTable = []func(){deadViaVar}

func deadViaVar() {}

func deadReader() { deadTable[0]() }

// Series is reached through the alias in package fixture.
type Series struct{ Parts []Part }

func (Series) LiveExported()   {}
func (Series) deadUnexported() {}

// Part is reached through an exported field of Series.
type Part struct{}

func (*Part) LiveThroughField() {}

// Hidden is not part of package fixture's API.
type Hidden struct{}

func (Hidden) DeadMethod() {}

// DeadViaAPI is called only by fixture.DeadAPI.
func (Hidden) DeadViaAPI() {}
