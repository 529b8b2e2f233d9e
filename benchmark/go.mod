module rossf/benchmark

go 1.24

require rossf v0.0.0

replace rossf => ../
