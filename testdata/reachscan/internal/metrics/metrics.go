package metrics

// Counter is the scanned counter type: Inc is a write, Load a read.
type Counter struct{ n int64 }

func (c *Counter) Inc()        { c.n++ }
func (c *Counter) Load() int64 { return c.n }
