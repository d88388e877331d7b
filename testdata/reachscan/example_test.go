package fixture_test

import "fixture"

func ExampleLiveByExample() { fixture.LiveByExample() }

// helper is no Example function, so what it uses is no root.
func helper() { fixture.DeadAPI() }
