package obs

import (
	"fmt"
	"os"
)

// This file is what the commands' -trace and -metrics flags share: the
// path conventions ("" = disabled, "-" = stdout) live here once, and
// the commands decide only what to do with an error.

// OpenTrace opens the stream tracer a -trace flag names. A disabled
// path yields a nil tracer, which ignores every record. The returned
// close function surfaces any write error the stream latched, then
// closes the file; call it once, after the last record.
func OpenTrace(path string) (*Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return nil, nil, err
		}
	}
	t := NewStream(f)
	return t, func() error {
		if err := t.writeErr(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if f == os.Stdout {
			return nil
		}
		return f.Close()
	}, nil
}

// writeMetrics dumps the registry as indented JSON where a -metrics
// flag names. A nil registry or a disabled path writes nothing.
func writeMetrics(reg *Registry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	if path == "-" {
		return reg.writeJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.writeJSON(f); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// Finisher returns what a command runs on every way out of main that is
// not already a failure: close the -trace stream (OpenTrace's close
// function), then dump -metrics. An error goes to fail, the command's
// own fatal, which does not return.
func Finisher(closeTrace func() error, reg *Registry, metricsPath string, fail func(error)) func() {
	return func() {
		if err := closeTrace(); err != nil {
			fail(err)
		}
		if err := writeMetrics(reg, metricsPath); err != nil {
			fail(err)
		}
	}
}
