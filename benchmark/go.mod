module aggify/benchmark

go 1.22

require aggify v0.0.0

replace aggify => ../
