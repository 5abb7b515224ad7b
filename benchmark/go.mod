module parma/benchmark

go 1.22

require parma v0.0.0

replace parma => ../
