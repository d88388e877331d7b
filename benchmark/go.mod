module bandslim/benchmark

go 1.22

require bandslim v0.0.0

replace bandslim => ../
