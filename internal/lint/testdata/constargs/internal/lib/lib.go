// Package lib holds one function per argument shape and exemption of
// the constant-argument classifier.
package lib

// K is a named constant; passing it is passing its value.
const K = 3.5

// Always is passed 3 and "a" by both calls: x and name are reported,
// y varies.
func Always(x int, name string, y float64) float64 { return float64(x) + y + float64(len(name)) }

// Varies sees two different constants.
func Varies(x int) int { return x }

// NonConst sees a constant and a variable.
func NonConst(x int) int { return x }

// Named sees the named constant K at both calls: k is reported.
func Named(k float64) float64 { return k }

// Variadic's fixed parameter is reported; its variadic one is exempt.
func Variadic(x int, rest ...int) int { return x + len(rest) }

// Valued is also taken as a function value, so not every caller is
// visible as a call.
func Valued(x int) int { return x }

// Uncalled has no non-test caller.
func Uncalled(x int) int { return x }

// Pair is called once with constants and once through a multi-value
// call.
func Pair(a, b int) int { return a + b }

// Gen is generic; n is reported across instantiations.
func Gen[V any](v V, n int) int { return n }

// unexported functions are exempt.
func unexported(x int) int { return x }

// T carries the method cases.
type T struct{}

// Direct is called directly only: x is reported.
func (T) Direct(x int) int { return x }

// Bound is also taken as a method value.
func (T) Bound(x int) int { return x }

// Expr is also called as a method expression.
func (T) Expr(x int) int { return x }

// Run satisfies Runner, so interface callers are invisible.
func (T) Run(n int) int { return n }

// Runner is an interface the program uses.
type Runner interface{ Run(n int) int }

func two() (int, int) { return 1, 2 }

// Use makes every call.
func Use(v int) int {
	var r Runner = T{}
	f := Valued
	g := T{}.Bound
	a, b := two()
	return int(Always(3, "a", 1)+Always(3, "a", 2)) +
		Varies(1) + Varies(2) +
		NonConst(1) + NonConst(v) +
		int(Named(K)+Named(3.5)) +
		Variadic(1) + Variadic(1, 2, 3) +
		Valued(1) + f(1) +
		Pair(two()) + Pair(1, 1) + a + b +
		Gen(1.0, 2) + Gen("x", 2) +
		unexported(1) + unexported(1) +
		T{}.Direct(4) + T{}.Direct(4) +
		T{}.Bound(1) + g(1) +
		T{}.Expr(1) + T.Expr(T{}, 1) +
		T{}.Run(5) + r.Run(5)
}
