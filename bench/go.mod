// The benchmark is a module of its own so that building it never touches
// the repository's build file. Its path sits under repro/, which is what
// lets it import repro/internal/...; the program under test is whatever
// the checkout around it holds.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
