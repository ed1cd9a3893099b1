package skipfix

// Test files are outside the analysis build; the loader leaves them out.
func helper() int { return 3 }
