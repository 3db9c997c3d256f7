package exec

import (
	"errors"
	"fmt"
)

// ErrMachine is the sentinel behind every machine-state fault: behavior
// of the *simulated program* (an unimplemented opcode, a wild address, a
// return past the entry frame) rather than a bug in the simulator.
// Callers match with errors.Is(err, exec.ErrMachine).
var ErrMachine = errors.New("exec: machine fault")

// ExecError is a machine-state fault raised mid-step. The interpreter's
// hot loops cannot thread error returns through every instruction
// without losing their shape, so faults travel as a panic of this type
// and are converted back into an ordinary error by Recover at each
// public API boundary (exec.Run/RunSchedule and the pinball
// and timing entry points); an address outside memory travels as a
// badAddr, which Recover turns into one. Programmer-error panics — plain
// strings, other types — are not intercepted and still crash loudly.
type ExecError struct {
	Msg string
}

func (e *ExecError) Error() string { return e.Msg }

// Unwrap lets errors.Is(err, ErrMachine) match.
func (e *ExecError) Unwrap() error { return ErrMachine }

// throwf raises a machine fault from inside the interpreter loops.
func throwf(format string, args ...any) {
	panic(&ExecError{Msg: fmt.Sprintf(format, args...)})
}

// Recover converts an in-flight *ExecError panic into *err, for use as
// `defer exec.Recover(&err)` on any function that drives a Machine. All
// other panic values are re-raised untouched — only classified machine
// faults become errors; bugs keep crashing.
func Recover(err *error) {
	switch r := recover().(type) {
	case nil:
	case *ExecError:
		if *err == nil {
			*err = r
		}
	case badAddr:
		if *err == nil {
			*err = r.fault()
		}
	default:
		panic(r)
	}
}
