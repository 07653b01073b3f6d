module vectorh/bench

go 1.24

require vectorh v0.0.0

replace vectorh => ../
