// Package opts holds one field per write form TestNoUnsetOptions
// recognizes, and the fields it must report or exempt.
package opts

// Counter has a pointer method and a value method.
type Counter struct{ N int }

// Inc writes through its pointer receiver.
func (c *Counter) Inc() { c.N++ }

// Get only reads.
func (c Counter) Get() int { return c.N }

// Inner is written through its parent: x.F.G.
type Inner struct {
	G int
	H int // never set: reported
}

// Base is embedded in Config.
type Base struct{ B int }

// Pair is built by a positional literal.
type Pair struct{ A, B int }

// Config has one field per write form.
type Config struct {
	Literal     int
	Assigned    int
	IncDec      int
	Indexed     []int
	Nested      Inner
	Addressed   int
	Sliced      [4]int
	Ranged      int
	Method      Counter
	ValueMethod Counter // only a value method is called: reported
	Defaulted   int     // written only in withDefaults: reported
	Unset       int     // only read: reported
	Tagged      int     `json:"tagged"` // decoded by reflection: exempt
	Base                // embedded: exempt
	unexported  int     // unexported: exempt
}

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c
}

// Use performs each write form once and reads the rest.
func Use() int {
	c := Config{Literal: 1, Indexed: make([]int, 1)}.withDefaults()
	c.Assigned = 2
	c.IncDec++
	c.Indexed[0] = 3
	c.Nested.G = 4
	p := &c.Addressed
	s := c.Sliced[:]
	for c.Ranged = range s {
	}
	c.Method.Inc()
	c.B = 5
	pair := Pair{6, 7}
	return *p + pair.A + pair.B + c.ValueMethod.Get() + c.Defaulted + c.Unset +
		c.Tagged + c.unexported + c.Nested.H
}
