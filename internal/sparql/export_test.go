package sparql

// MaxNesting shows the parser's nesting bound to the package's external
// tests, which are external because they import the reference evaluator.
const MaxNesting = maxNesting
