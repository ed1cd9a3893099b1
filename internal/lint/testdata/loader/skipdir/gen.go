// Code generated by lintfixturegen. DO NOT EDIT.

package skipfix

// Gen is generated code: loaded and analyzed like any other file.
func Gen() int { return 2 }
