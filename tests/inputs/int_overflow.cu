// `flux` adds `MIN / -1`, which overflows: the interpreter traps, as it
// does on a zero divisor, so the profile is lost and the original program
// is kept (exit 0; exit 4 under --strict).
__global__ void flux(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  int a = -9223372036854775807 - 1;
  int d = -1;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = 0.5 * q[k][j][i] * q[k][j][i] + a / d; }
  }
}
__global__ void upd(const double* __restrict__ f, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) { d[k][j][i] = f[k][j][i+1] - f[k][j][i-1]; }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  upd<<<dim3(4, 4), dim3(16, 8)>>>(f, d, nx, ny, nz);
  cudaMemcpyD2H(d);
}
