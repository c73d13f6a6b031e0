module overd/benchmark

go 1.22

require overd v0.0.0

replace overd => ../
