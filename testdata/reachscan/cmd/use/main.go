// Command use is the fixture's consumer package.
package main

import "fixture"

func main() {
	s := fixture.Series{}
	s.LiveExported()
	for i := range s.Parts {
		s.Parts[i].LiveThroughField()
	}
	println(fixture.Run())
}
