package exec

import (
	"errors"
	"testing"

	"looppoint/internal/isa"
)

// oobProgram builds a program whose only thread performs a wildly
// out-of-range load — the canonical machine fault.
func oobProgram(t *testing.T) *isa.Program {
	t.Helper()
	p := isa.NewProgram("fault", 1)
	p.Alloc("x", 1)
	img := p.AddImage("main", false)
	r := img.NewRoutine("main")
	blk := r.NewBlock("entry")
	blk.IMovI(1, 1<<40)
	blk.ILoad(2, 1, 0)
	blk.Halt()
	p.SetEntry(0, r)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMachineFaultIsTypedError: a machine fault surfaces from every
// driver, the block engine's and a Step loop's, as an error wrapping
// ErrMachine, with the *ExecError detail available via errors.As — never
// as a panic.
func TestMachineFaultIsTypedError(t *testing.T) {
	p := oobProgram(t)
	drivers := map[string]func(m *Machine) error{
		"Run": func(m *Machine) error { return m.Run(RunOpts{}) },
		"RunSchedule": func(m *Machine) error {
			return m.RunSchedule(Schedule{{Tid: 0, N: 8}})
		},
		"Step": func(m *Machine) error {
			return stepSchedule(m, Schedule{{Tid: 0, N: 8}})
		},
	}
	for name, drive := range drivers {
		err := drive(NewMachine(p, 1))
		if !errors.Is(err, ErrMachine) {
			t.Errorf("%s: err = %v, want ErrMachine", name, err)
			continue
		}
		var ee *ExecError
		if !errors.As(err, &ee) || ee.Msg == "" {
			t.Errorf("%s: no *ExecError detail in %v", name, err)
		}
	}
}

// TestRecoverPassesForeignPanics: Recover intercepts only *ExecError;
// programmer-error panics (plain strings, other types) keep crashing.
func TestRecoverPassesForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "programmer error" {
			t.Errorf("recover = %v, want the original panic value", r)
		}
	}()
	func() (err error) {
		defer Recover(&err)
		panic("programmer error")
	}()
	t.Fatalf("foreign panic was swallowed")
}

// TestRecoverKeepsEarlierError: Recover does not clobber an error the
// function already decided to return.
func TestRecoverKeepsEarlierError(t *testing.T) {
	sentinel := errors.New("original")
	// Normal return path with err already set: untouched.
	err := func() (err error) {
		defer Recover(&err)
		return sentinel
	}()
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	// Fault path: the ExecError becomes the error.
	err = func() (err error) {
		defer Recover(&err)
		throwf("exec: boom %d", 7)
		return nil
	}()
	if !errors.Is(err, ErrMachine) || err.Error() != "exec: boom 7" {
		t.Errorf("err = %v, want exec: boom 7", err)
	}
}
