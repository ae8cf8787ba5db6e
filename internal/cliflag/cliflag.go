// Package cliflag holds the flag handling the cmd tools share: the
// passed-flag discipline (Passed), the trace-input flags and their one
// loader (Trace), and the input loaders behind them (LoadProgram,
// FileDigest).
//
// A configuration field may only be overridden when its flag was
// actually passed on the command line. Testing a flag's value against
// its default is wrong twice — an explicit `-blocks 600000` matching the
// default should still pin the value into cache signatures, and a
// meaningful zero (e.g. `-blocks 0`) is indistinguishable from "unset".
// flag.Visit enumerates exactly the flags that were set, which is the
// only reliable signal.
package cliflag

import "flag"

// Passed reports whether the named flag was explicitly set on the
// command line. flag.Parse must have run.
func Passed(name string) bool {
	return PassedIn(flag.CommandLine, name)
}

// PassedIn reports whether the named flag was explicitly set in fs.
// fs.Parse must have run.
func PassedIn(fs *flag.FlagSet, name string) bool {
	found := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}
