module dcmodel/benchmark

go 1.22

require dcmodel v0.0.0

replace dcmodel => ../
