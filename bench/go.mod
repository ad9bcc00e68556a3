module recmem/bench

go 1.24

require recmem v0.0.0

replace recmem => ../
