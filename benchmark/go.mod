module ankerdb/benchmark

go 1.22

require ankerdb v0.0.0

replace ankerdb => ../
