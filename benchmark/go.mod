module pamigo/benchmark

go 1.22

require pamigo v0.0.0

replace pamigo => ../
