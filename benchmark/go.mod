module github.com/glign/glign/benchmark

go 1.22

require github.com/glign/glign v0.0.0

replace github.com/glign/glign => ../
